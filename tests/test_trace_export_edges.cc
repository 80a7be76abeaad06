/**
 * @file
 * Edge cases of the CSV beat-trace exporter (core/trace_export.h):
 * decimation strides past the beat count, empty series, and decimated
 * rows while a DVFS governor changes the P-state mid-run (so the kept
 * rows straddle a pstate column change).
 */
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/identify.h"
#include "core/session.h"
#include "core/trace_export.h"
#include "sim/dvfs_governor.h"
#include "toy_app.h"

namespace powerdial::core {
namespace {

using tests::ToyApp;

std::size_t
countLines(const std::string &text)
{
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
}

TEST(TraceExportEdges, DecimateBeyondBeatCountKeepsOnlyBeatZero)
{
    std::vector<BeatTrace> beats(5);
    for (std::size_t i = 0; i < beats.size(); ++i)
        beats[i].time_s = static_cast<double>(i);
    std::ostringstream os;
    writeBeatsCsv(os, beats, 100);
    // Beat 0 is always on the decimation grid; nothing else is.
    EXPECT_EQ(countLines(os.str()), 2u);
    EXPECT_NE(os.str().find("\n0,0,"), std::string::npos);
}

TEST(TraceExportEdges, EmptySeriesIsHeaderOnly)
{
    std::ostringstream os;
    writeBeatsCsv(os, {}, 7);
    EXPECT_EQ(countLines(os.str()), 1u);
    EXPECT_EQ(os.str().rfind("beat,time_s,", 0), 0u);
}

/**
 * The beat series of one controlled run whose machine drops to the
 * deepest P-state mid-run and recovers near the end.
 */
std::vector<BeatTrace>
governedRun()
{
    ToyApp::Config config;
    config.units = 60;
    ToyApp app(config);
    auto ident = identifyKnobs(app);
    EXPECT_TRUE(ident.analysis.accepted);
    const auto cal = calibrate(app, app.trainingInputs());

    sim::Machine probe;
    const double baseline_s = cal.model.baselineSeconds();
    SessionOptions options;
    options.governor = sim::DvfsGovernor::powerCap(
        probe, baseline_s * 0.3, baseline_s * 0.8);

    Session session(app, ident.table, cal.model, options);
    auto &recorder = session.attach<BeatTraceRecorder>();
    sim::Machine machine;
    session.run(0, machine);
    return recorder.beats();
}

TEST(TraceExportEdges, MidRunPStateChangeSurvivesDecimation)
{
    const auto beats = governedRun();

    // The scenario did change P-state mid-run (else this test pins
    // nothing): some beat ran capped, some uncapped.
    std::vector<std::size_t> pstates;
    for (const auto &beat : beats)
        pstates.push_back(beat.pstate);
    EXPECT_GT(*std::max_element(pstates.begin(), pstates.end()), 0u);
    EXPECT_EQ(*std::min_element(pstates.begin(), pstates.end()), 0u);

    // The decimate-7 rows are exactly beats 0, 7, 14, ...: the stride
    // does not reset or slip when the pstate column changes between
    // kept rows, and both a capped and an uncapped pstate value
    // appear among them.
    std::ostringstream os;
    writeBeatsCsv(os, beats, 7);
    std::istringstream rows(os.str());
    std::string row;
    std::getline(rows, row); // Header.
    bool saw_capped = false;
    bool saw_uncapped = false;
    for (std::size_t i = 0; i < beats.size(); i += 7) {
        ASSERT_TRUE(std::getline(rows, row));
        EXPECT_EQ(row.substr(0, row.find(',')), std::to_string(i));
        const std::string pstate = row.substr(row.rfind(',') + 1);
        EXPECT_EQ(pstate, std::to_string(beats[i].pstate)) << row;
        saw_capped = saw_capped || beats[i].pstate > 0;
        saw_uncapped = saw_uncapped || beats[i].pstate == 0;
    }
    EXPECT_FALSE(std::getline(rows, row)) << "extra row " << row;
    EXPECT_TRUE(saw_capped);
    EXPECT_TRUE(saw_uncapped);
}

TEST(TraceExportEdges, DecimateBeyondRunLengthStreamsOneRow)
{
    const auto beats = governedRun();
    EXPECT_EQ(beats.size(), 60u);
    std::ostringstream os;
    writeBeatsCsv(os, beats, 1000);
    // Header plus the single on-grid row (beat 0).
    EXPECT_EQ(countLines(os.str()), 2u);
    EXPECT_NE(os.str().find("\n0,"), std::string::npos);
}

} // namespace
} // namespace powerdial::core
