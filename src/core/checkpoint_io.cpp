#include "core/checkpoint_io.hpp"

#include "sim/checkpoint.hpp"

namespace cocoa::core {

namespace {

constexpr std::uint32_t kMarkScenarioConfig = 0x53434647u;  // "SCFG"
constexpr std::uint32_t kMarkSwarmConfig = 0x57434647u;     // "WCFG"

void save_odometry(sim::ckpt::Writer& w, const mobility::OdometryConfig& c) {
    w.f64(c.displacement_sigma);
    w.f64(c.angular_sigma_rad);
    w.f64(c.heading_drift_sigma_rad);
    w.f64(c.velocity_bias_sigma);
}

mobility::OdometryConfig load_odometry(sim::ckpt::Reader& r) {
    mobility::OdometryConfig c;
    c.displacement_sigma = r.f64();
    c.angular_sigma_rad = r.f64();
    c.heading_drift_sigma_rad = r.f64();
    c.velocity_bias_sigma = r.f64();
    return c;
}

void save_channel(sim::ckpt::Writer& w, const phy::ChannelConfig& c) {
    w.f64(c.tx_power_dbm);
    w.f64(c.ref_distance_m);
    w.f64(c.ref_loss_db);
    w.f64(c.exponent_near);
    w.f64(c.exponent_far);
    w.f64(c.breakpoint_m);
    w.f64(c.shadowing_sigma_near_db);
    w.f64(c.shadowing_sigma_far_db);
    w.f64(c.sigma_ramp_end_m);
    w.f64(c.fade_mean_far_db);
    w.f64(c.rx_sensitivity_dbm);
    w.f64(c.carrier_sense_dbm);
    w.f64(c.shadowing_clamp_sigmas);
}

phy::ChannelConfig load_channel(sim::ckpt::Reader& r) {
    phy::ChannelConfig c;
    c.tx_power_dbm = r.f64();
    c.ref_distance_m = r.f64();
    c.ref_loss_db = r.f64();
    c.exponent_near = r.f64();
    c.exponent_far = r.f64();
    c.breakpoint_m = r.f64();
    c.shadowing_sigma_near_db = r.f64();
    c.shadowing_sigma_far_db = r.f64();
    c.sigma_ramp_end_m = r.f64();
    c.fade_mean_far_db = r.f64();
    c.rx_sensitivity_dbm = r.f64();
    c.carrier_sense_dbm = r.f64();
    c.shadowing_clamp_sigmas = r.f64();
    return c;
}

void save_calibration(sim::ckpt::Writer& w, const phy::CalibrationConfig& c) {
    w.f64(c.min_distance_m);
    w.f64(c.max_distance_m);
    w.f64(c.distance_step_m);
    w.i32(c.samples_per_distance);
    w.i32(c.min_bin_samples);
    w.f64(c.skewness_threshold);
    w.f64(c.kurtosis_threshold);
    w.b(c.enforce_contiguous_regime);
}

phy::CalibrationConfig load_calibration(sim::ckpt::Reader& r) {
    phy::CalibrationConfig c;
    c.min_distance_m = r.f64();
    c.max_distance_m = r.f64();
    c.distance_step_m = r.f64();
    c.samples_per_distance = r.i32();
    c.min_bin_samples = r.i32();
    c.skewness_threshold = r.f64();
    c.kurtosis_threshold = r.f64();
    c.enforce_contiguous_regime = r.b();
    return c;
}

void save_power(sim::ckpt::Writer& w, const energy::PowerProfile& c) {
    w.f64(c.tx_mw);
    w.f64(c.rx_mw);
    w.f64(c.idle_mw);
    w.f64(c.sleep_mw);
    w.f64(c.off_mw);
    w.f64(c.transition_mj);
}

energy::PowerProfile load_power(sim::ckpt::Reader& r) {
    energy::PowerProfile c;
    c.tx_mw = r.f64();
    c.rx_mw = r.f64();
    c.idle_mw = r.f64();
    c.sleep_mw = r.f64();
    c.off_mw = r.f64();
    c.transition_mj = r.f64();
    return c;
}

void save_mac(sim::ckpt::Writer& w, const mac::MacConfig& c) {
    w.dur(c.slot);
    w.dur(c.difs);
    w.dur(c.plcp_preamble);
    w.i32(c.cw_min);
    w.f64(c.bitrate_bps);
}

mac::MacConfig load_mac(sim::ckpt::Reader& r) {
    mac::MacConfig c;
    c.slot = r.dur();
    c.difs = r.dur();
    c.plcp_preamble = r.dur();
    c.cw_min = r.i32();
    c.bitrate_bps = r.f64();
    return c;
}

void save_medium(sim::ckpt::Writer& w, const mac::MediumConfig& c) {
    w.f64(c.capture_margin_db);
    w.dur(c.cca_delay);
    w.b(c.interference_culling);
    w.b(c.register_node_counters);
}

mac::MediumConfig load_medium(sim::ckpt::Reader& r) {
    mac::MediumConfig c;
    c.capture_margin_db = r.f64();
    c.cca_delay = r.dur();
    c.interference_culling = r.b();
    c.register_node_counters = r.b();
    return c;
}

void save_multicast(sim::ckpt::Writer& w, const multicast::MulticastConfig& c) {
    w.u32(static_cast<std::uint32_t>(c.variant));
    w.dur(c.refresh_interval);
    w.b(c.auto_refresh);
    w.dur(c.fg_timeout);
    w.u8(c.max_hops);
    w.dur(c.reply_jitter_max);
    w.dur(c.data_jitter_max);
    w.dur(c.query_aggregation);
    w.i32(c.data_suppression_copies);
    w.f64(c.lifetime_range_m);
    w.u64(c.query_bytes);
    w.u64(c.reply_bytes);
    w.u64(c.data_header_bytes);
}

multicast::MulticastConfig load_multicast(sim::ckpt::Reader& r) {
    multicast::MulticastConfig c;
    c.variant = r.enumerator(multicast::Variant::Mrmm);
    c.refresh_interval = r.dur();
    c.auto_refresh = r.b();
    c.fg_timeout = r.dur();
    c.max_hops = r.u8();
    c.reply_jitter_max = r.dur();
    c.data_jitter_max = r.dur();
    c.query_aggregation = r.dur();
    c.data_suppression_copies = r.i32();
    c.lifetime_range_m = r.f64();
    c.query_bytes = r.u64();
    c.reply_bytes = r.u64();
    c.data_header_bytes = r.u64();
    return c;
}

}  // namespace

void save_config(sim::ckpt::Writer& w, const ScenarioConfig& c) {
    w.mark(kMarkScenarioConfig);
    w.u64(c.seed);
    w.f64(c.area_side_m);
    w.i32(c.num_robots);
    w.i32(c.num_anchors);
    w.f64(c.min_speed);
    w.f64(c.max_speed);
    w.dur(c.duration);
    w.u32(static_cast<std::uint32_t>(c.mode));
    w.u32(static_cast<std::uint32_t>(c.sync));
    w.b(c.sleep_coordination);
    w.dur(c.period);
    w.dur(c.window);
    w.i32(c.beacons_per_window);
    w.i32(c.min_beacons_for_fix);
    w.u32(static_cast<std::uint32_t>(c.technique));
    w.u32(static_cast<std::uint32_t>(c.estimator));
    w.f64(c.cell_m);
    w.f64(c.floor_fraction);
    w.f64(c.ekf_q_displacement_frac);
    w.f64(c.ekf_q_floor_var_per_s);
    w.f64(c.ekf_gate_sigmas);
    w.b(c.ekf_use_non_gaussian_bins);
    w.f64(c.ekf_min_range_sigma_m);
    w.f64(c.ekf_reject_inflation_var);
    w.f64(c.ekf_missed_window_var);
    w.i32(c.lincvx_min_beacons);
    w.f64(c.beacon_rssi_cutoff_dbm);
    w.b(c.use_non_gaussian_bins);
    save_odometry(w, c.odometry);
    save_channel(w, c.channel);
    save_calibration(w, c.calibration);
    save_power(w, c.power);
    save_mac(w, c.mac);
    save_medium(w, c.medium);
    save_multicast(w, c.multicast);
    w.dur(c.tick);
    w.dur(c.sample_interval);
    w.dur(c.wake_guard);
    w.dur(c.window_slack);
    w.f64(c.clock_skew_sigma_s);
    w.f64(c.sync_residual_sigma_s);
    w.f64(c.anchor_position_sigma_m);
    w.b(c.heading_correction_at_fix);
    w.b(c.initial_pose_known);
    w.b(c.blind_beaconing);
    w.f64(c.blind_beacon_max_spread_m);
    w.i32(c.sync_backups);
    w.i32(c.grid_update_threads);
}

ScenarioConfig load_scenario_config(sim::ckpt::Reader& r) {
    r.expect(kMarkScenarioConfig);
    ScenarioConfig c;
    c.seed = r.u64();
    c.area_side_m = r.f64();
    c.num_robots = r.i32();
    c.num_anchors = r.i32();
    c.min_speed = r.f64();
    c.max_speed = r.f64();
    c.duration = r.dur();
    c.mode = r.enumerator(LocalizationMode::Ekf);
    c.sync = r.enumerator(SyncMode::Mrmm);
    c.sleep_coordination = r.b();
    c.period = r.dur();
    c.window = r.dur();
    c.beacons_per_window = r.i32();
    c.min_beacons_for_fix = r.i32();
    c.technique = r.enumerator(RfTechnique::LeastSquares);
    c.estimator = r.enumerator(est::Backend::LinCvx);
    c.cell_m = r.f64();
    c.floor_fraction = r.f64();
    c.ekf_q_displacement_frac = r.f64();
    c.ekf_q_floor_var_per_s = r.f64();
    c.ekf_gate_sigmas = r.f64();
    c.ekf_use_non_gaussian_bins = r.b();
    c.ekf_min_range_sigma_m = r.f64();
    c.ekf_reject_inflation_var = r.f64();
    c.ekf_missed_window_var = r.f64();
    c.lincvx_min_beacons = r.i32();
    c.beacon_rssi_cutoff_dbm = r.f64();
    c.use_non_gaussian_bins = r.b();
    c.odometry = load_odometry(r);
    c.channel = load_channel(r);
    c.calibration = load_calibration(r);
    c.power = load_power(r);
    c.mac = load_mac(r);
    c.medium = load_medium(r);
    c.multicast = load_multicast(r);
    c.tick = r.dur();
    c.sample_interval = r.dur();
    c.wake_guard = r.dur();
    c.window_slack = r.dur();
    c.clock_skew_sigma_s = r.f64();
    c.sync_residual_sigma_s = r.f64();
    c.anchor_position_sigma_m = r.f64();
    c.heading_correction_at_fix = r.b();
    c.initial_pose_known = r.b();
    c.blind_beaconing = r.b();
    c.blind_beacon_max_spread_m = r.f64();
    c.sync_backups = r.i32();
    c.grid_update_threads = r.i32();
    return c;
}

void save_config(sim::ckpt::Writer& w, const SwarmConfig& c) {
    w.mark(kMarkSwarmConfig);
    w.i32(c.nodes);
    w.u64(c.seed);
    w.dur(c.duration);
    w.dur(c.beacon_period);
    w.dur(c.awake_window);
    w.dur(c.mobility_tick);
    w.f64(c.density_per_m2);
    w.f64(c.min_speed);
    w.f64(c.max_speed);
    w.dur(c.min_pause);
    w.dur(c.max_pause);
    w.u64(c.beacon_bytes);
    w.i32(c.mobility_threads);
    w.b(c.collect_final_positions);
    save_channel(w, c.channel);
    save_medium(w, c.medium);
    save_power(w, c.power);
}

SwarmConfig load_swarm_config(sim::ckpt::Reader& r) {
    r.expect(kMarkSwarmConfig);
    SwarmConfig c;
    c.nodes = r.i32();
    c.seed = r.u64();
    c.duration = r.dur();
    c.beacon_period = r.dur();
    c.awake_window = r.dur();
    c.mobility_tick = r.dur();
    c.density_per_m2 = r.f64();
    c.min_speed = r.f64();
    c.max_speed = r.f64();
    c.min_pause = r.dur();
    c.max_pause = r.dur();
    c.beacon_bytes = r.u64();
    c.mobility_threads = r.i32();
    c.collect_final_positions = r.b();
    c.channel = load_channel(r);
    c.medium = load_medium(r);
    c.power = load_power(r);
    return c;
}

}  // namespace cocoa::core
