#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "cli/args.hpp"

namespace cocoa::cli {
namespace {

struct ParseResult {
    bool ok = false;
    bool failed = false;
    std::string out;
    std::string err;
};

ParseResult run(ArgParser& parser, std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    std::ostringstream out;
    std::ostringstream err;
    ParseResult r;
    r.ok = parser.parse(static_cast<int>(argv.size()), argv.data(), out, err);
    r.failed = parser.failed();
    r.out = out.str();
    r.err = err.str();
    return r;
}

TEST(ArgParser, ParsesEachType) {
    double d = 0.0;
    int i = 0;
    std::uint64_t u = 0;
    std::string s;
    bool flag = false;
    ArgParser p("prog", "test");
    p.add_option("double", "", &d)
        .add_option("int", "", &i)
        .add_option("uint", "", &u)
        .add_option("string", "", &s)
        .add_flag("flag", "", &flag);
    const auto r = run(p, {"--double", "2.5", "--int", "-3", "--uint", "99",
                           "--string", "hello", "--flag"});
    EXPECT_TRUE(r.ok);
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_EQ(i, -3);
    EXPECT_EQ(u, 99u);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(flag);
}

TEST(ArgParser, EqualsSyntax) {
    double d = 0.0;
    ArgParser p("prog", "test");
    p.add_option("x", "", &d);
    EXPECT_TRUE(run(p, {"--x=4.25"}).ok);
    EXPECT_DOUBLE_EQ(d, 4.25);
}

TEST(ArgParser, RangedIntAcceptsBoundsAndRejectsOutside) {
    int reps = 1;
    ArgParser p("prog", "test");
    p.add_option("reps", "", &reps, 1, 8);

    EXPECT_TRUE(run(p, {"--reps", "1"}).ok);
    EXPECT_EQ(reps, 1);
    EXPECT_TRUE(run(p, {"--reps", "8"}).ok);
    EXPECT_EQ(reps, 8);

    const auto low = run(p, {"--reps", "0"});
    EXPECT_FALSE(low.ok);
    EXPECT_TRUE(low.failed);
    EXPECT_NE(low.err.find("[1, 8]"), std::string::npos);

    const auto high = run(p, {"--reps", "9"});
    EXPECT_FALSE(high.ok);
    EXPECT_TRUE(high.failed);
}

TEST(ArgParser, RangedIntRejectsEmptyRangeAtRegistration) {
    int x = 0;
    ArgParser p("prog", "test");
    EXPECT_THROW(p.add_option("x", "", &x, 5, 4), std::invalid_argument);
}

TEST(ArgParser, DefaultsSurviveWhenUnset) {
    int i = 42;
    ArgParser p("prog", "test");
    p.add_option("i", "", &i);
    EXPECT_TRUE(run(p, {}).ok);
    EXPECT_EQ(i, 42);
}

TEST(ArgParser, HelpPrintsAndReturnsFalseWithoutFailure) {
    int i = 0;
    ArgParser p("prog", "does things");
    p.add_option("count", "how many", &i);
    const auto r = run(p, {"--help"});
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.failed);
    EXPECT_NE(r.out.find("does things"), std::string::npos);
    EXPECT_NE(r.out.find("--count"), std::string::npos);
    EXPECT_NE(r.out.find("how many"), std::string::npos);
}

TEST(ArgParser, UnknownOptionFails) {
    ArgParser p("prog", "test");
    const auto r = run(p, {"--nope"});
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
    int i = 0;
    ArgParser p("prog", "test");
    p.add_option("i", "", &i);
    const auto r = run(p, {"--i"});
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.err.find("needs a value"), std::string::npos);
}

TEST(ArgParser, BadNumberFails) {
    int i = 0;
    ArgParser p("prog", "test");
    p.add_option("i", "", &i);
    const auto r = run(p, {"--i", "12abc"});
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.err.find("bad value"), std::string::npos);
}

TEST(ArgParser, NonFiniteDoubleFails) {
    // std::stod parses these; a NaN would slip past every ordered range
    // check downstream (--vmax nan once hung cocoa_sim).
    for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e400"}) {
        double d = 1.5;
        ArgParser p("prog", "test");
        p.add_option("vmax", "", &d);
        const auto r = run(p, {"--vmax", bad});
        EXPECT_FALSE(r.ok) << bad;
        EXPECT_TRUE(r.failed) << bad;
        EXPECT_NE(r.err.find(std::string("bad value '") + bad + "' for --vmax"),
                  std::string::npos)
            << r.err;
        EXPECT_EQ(d, 1.5) << "a rejected value must not reach the target";
    }
}

TEST(ArgParser, FlagRejectsValue) {
    bool f = false;
    ArgParser p("prog", "test");
    p.add_flag("f", "", &f);
    const auto r = run(p, {"--f=yes"});
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.failed);
}

TEST(ArgParser, PositionalRejected) {
    ArgParser p("prog", "test");
    const auto r = run(p, {"stray"});
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.err.find("positional"), std::string::npos);
}

TEST(ArgParser, ChoiceAcceptsListedValues) {
    std::string s = "grid";
    ArgParser p("prog", "test");
    p.add_option("estimator", "", &s, {"grid", "ekf", "lincvx"});
    const auto r = run(p, {"--estimator", "ekf"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(s, "ekf");
}

TEST(ArgParser, ChoiceRejectsUnlistedValueAndListsChoices) {
    std::string s = "grid";
    ArgParser p("prog", "test");
    p.add_option("estimator", "", &s, {"grid", "ekf", "lincvx"});
    const auto r = run(p, {"--estimator", "kalman"});
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.err.find("bad value 'kalman' for --estimator"), std::string::npos);
    EXPECT_NE(r.err.find("choices: grid ekf lincvx"), std::string::npos);
}

TEST(ArgParser, ChoiceSuggestsNearMiss) {
    std::string s = "grid";
    ArgParser p("prog", "test");
    p.add_option("estimator", "", &s, {"grid", "ekf", "lincvx"});
    const auto r = run(p, {"--estimator", "gird"});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.err.find("did you mean 'grid'?"), std::string::npos);
}

TEST(ArgParser, ChoiceFarMissGetsNoSuggestion) {
    std::string s = "chrome";
    ArgParser p("prog", "test");
    p.add_option("trace-format", "", &s, {"chrome", "jsonl"});
    const auto r = run(p, {"--trace-format", "protobuf"});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.err.find("did you mean"), std::string::npos);
}

TEST(ArgParser, ChoicesAppearInHelp) {
    std::string s = "grid";
    ArgParser p("prog", "test");
    p.add_option("estimator", "belief backend", &s, {"grid", "ekf", "lincvx"});
    EXPECT_NE(p.help().find("(choices: grid ekf lincvx)"), std::string::npos);
}

TEST(ArgParser, EmptyChoiceSetThrows) {
    std::string s;
    ArgParser p("prog", "test");
    EXPECT_THROW(p.add_option("x", "", &s, {}), std::invalid_argument);
}

TEST(ArgParser, DuplicateRegistrationThrows) {
    int i = 0;
    ArgParser p("prog", "test");
    p.add_option("i", "", &i);
    EXPECT_THROW(p.add_option("i", "", &i), std::logic_error);
}

TEST(ArgParser, RegistrationWithDashesThrows) {
    int i = 0;
    ArgParser p("prog", "test");
    EXPECT_THROW(p.add_option("--i", "", &i), std::invalid_argument);
}

}  // namespace
}  // namespace cocoa::cli
