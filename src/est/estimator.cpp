#include "est/estimator.hpp"

#include <utility>

#include "est/ekf_cl.hpp"
#include "est/grid.hpp"
#include "est/lincvx.hpp"

namespace cocoa::est {

const char* to_string(Backend backend) {
    switch (backend) {
        case Backend::Grid: return "grid";
        case Backend::Ekf: return "ekf";
        case Backend::LinCvx: return "lincvx";
        case Backend::Rf: return "rf";
        case Backend::Odometry: return "odom";
    }
    return "?";
}

std::optional<Backend> parse_backend(std::string_view name) {
    if (name == "grid") return Backend::Grid;
    if (name == "ekf") return Backend::Ekf;
    if (name == "lincvx") return Backend::LinCvx;
    if (name == "rf") return Backend::Rf;
    if (name == "odom") return Backend::Odometry;
    return std::nullopt;
}

const core::RfLocalizer::Stats& Estimator::localizer_stats() const {
    static const core::RfLocalizer::Stats kZero{};
    return kZero;
}

std::unique_ptr<Estimator> make_estimator(
    Backend backend, const Config& tuning, const core::GridConfig& grid,
    std::shared_ptr<const phy::PdfTable> table, mobility::OdometryEstimator* odometry) {
    switch (backend) {
        case Backend::Ekf:
            return std::make_unique<EkfClEstimator>(tuning, grid.area, std::move(table));
        case Backend::LinCvx:
            return std::make_unique<LinCvxEstimator>(tuning, grid.area, std::move(table));
        case Backend::Grid:
        case Backend::Rf:
        case Backend::Odometry:  // never fixes: the agent dead-reckons it
            break;
    }
    return std::make_unique<GridEstimator>(backend, tuning, grid, std::move(table),
                                           odometry);
}

}  // namespace cocoa::est
