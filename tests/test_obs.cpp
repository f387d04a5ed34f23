/**
 * @file
 * Observability-layer tests: run-status classification of real
 * simulations (truncated / no-data runs must never masquerade as
 * zero-delay successes), aggregation across tainted replications, the
 * JSON/CSV emitters, display formatting, kernel counters, and the
 * sweep observer.
 */

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/text.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/run_log.hpp"
#include "obs/run_record.hpp"
#include "rsin/factory.hpp"

namespace rsin {
namespace {

workload::WorkloadParams
lightParams(double lambda = 0.05)
{
    workload::WorkloadParams params;
    params.lambda = lambda;
    params.muN = 1.0;
    params.muS = 0.1;
    return params;
}

SimResult
runSbus(const SimOptions &opts, double lambda = 0.05)
{
    const auto cfg = SystemConfig::parse("8/8x1x1 SBUS/2");
    return simulate(cfg, lightParams(lambda), opts);
}

TEST(RunStatusTest, FullRunIsOk)
{
    SimOptions opts;
    opts.warmupTasks = 100;
    opts.measureTasks = 1000;
    const auto res = runSbus(opts);
    EXPECT_EQ(res.status, RunStatus::Ok);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.countedTasks, opts.measureTasks);
    EXPECT_TRUE(std::isfinite(res.meanDelay));
}

TEST(RunStatusTest, MaxEventsAfterWarmupIsTruncated)
{
    // Enough events to clear the warm-up but nowhere near the quota:
    // the run must be flagged truncated, not reported as a full run.
    SimOptions opts;
    opts.warmupTasks = 50;
    opts.measureTasks = 1000000;
    opts.maxEvents = 5000;
    const auto res = runSbus(opts);
    EXPECT_EQ(res.status, RunStatus::Truncated);
    EXPECT_FALSE(res.ok());
    EXPECT_FALSE(res.saturated);
    EXPECT_GT(res.countedTasks, 0u);
    EXPECT_LT(res.countedTasks, opts.measureTasks);
    EXPECT_TRUE(std::isfinite(res.meanDelay));
}

TEST(RunStatusTest, MaxEventsBeforeWarmupIsNoData)
{
    // The historical bug: stopping on maxEvents before any post-warmup
    // completion produced meanDelay = 0, saturated = false -- an
    // excellent-looking result backed by zero observations.
    SimOptions opts;
    opts.warmupTasks = 10000;
    opts.measureTasks = 10000;
    opts.maxEvents = 40;
    const auto res = runSbus(opts);
    EXPECT_EQ(res.status, RunStatus::NoData);
    EXPECT_FALSE(res.ok());
    EXPECT_FALSE(res.saturated);
    EXPECT_EQ(res.countedTasks, 0u);
    EXPECT_TRUE(std::isnan(res.meanDelay));
    EXPECT_TRUE(std::isnan(res.normalizedDelay));
}

TEST(RunStatusTest, OverloadIsSaturated)
{
    SimOptions opts;
    opts.warmupTasks = 100;
    opts.measureTasks = 100000;
    opts.saturationQueueLimit = 200;
    const auto res = runSbus(opts, /*lambda=*/50.0);
    EXPECT_EQ(res.status, RunStatus::Saturated);
    EXPECT_TRUE(res.saturated);
}

TEST(RunStatusTest, WireNamesRoundTrip)
{
    for (const auto status :
         {RunStatus::Ok, RunStatus::Saturated, RunStatus::Truncated,
          RunStatus::NoData})
        EXPECT_EQ(parseRunStatus(toString(status)), status);
    EXPECT_THROW(parseRunStatus("bogus"), FatalError);
}

SimResult
resultWith(RunStatus status, double mean_delay)
{
    SimResult res;
    res.status = status;
    res.saturated = status == RunStatus::Saturated;
    res.meanDelay = mean_delay;
    res.normalizedDelay = mean_delay;
    // An Ok (or truncated) run by definition measured something;
    // countedTasks == 0 is reserved for NoData and contract builds
    // enforce that.
    if (status == RunStatus::Ok || status == RunStatus::Truncated) {
        res.completedTasks = 100;
        res.countedTasks = 100;
    }
    if (status == RunStatus::NoData) {
        res.meanDelay = std::nan("");
        res.normalizedDelay = std::nan("");
    }
    return res;
}

TEST(AggregateTest, TaintedReplicationsAreExcluded)
{
    // One truncated outlier and one no-data NaN must not perturb the
    // estimate built from the Ok replications.
    std::vector<SimResult> runs{
        resultWith(RunStatus::Ok, 1.0),
        resultWith(RunStatus::Truncated, 100.0),
        resultWith(RunStatus::Ok, 3.0),
        resultWith(RunStatus::NoData, 0.0),
    };
    const auto agg = aggregateReplications(runs, lightParams());
    EXPECT_EQ(agg.status, RunStatus::Ok);
    EXPECT_DOUBLE_EQ(agg.meanDelay, 2.0);
    EXPECT_DOUBLE_EQ(agg.normalizedDelay, 2.0 * 0.1);
}

TEST(AggregateTest, AllTruncatedStaysTruncated)
{
    std::vector<SimResult> runs{
        resultWith(RunStatus::Truncated, 1.0),
        resultWith(RunStatus::Truncated, 2.0),
        resultWith(RunStatus::Truncated, 3.0),
    };
    const auto agg = aggregateReplications(runs, lightParams());
    EXPECT_EQ(agg.status, RunStatus::Truncated);
    EXPECT_FALSE(agg.saturated);
    EXPECT_DOUBLE_EQ(agg.meanDelay, 2.0);
}

TEST(AggregateTest, AllNoDataStaysNoData)
{
    std::vector<SimResult> runs{
        resultWith(RunStatus::NoData, 0.0),
        resultWith(RunStatus::NoData, 0.0),
    };
    const auto agg = aggregateReplications(runs, lightParams());
    EXPECT_EQ(agg.status, RunStatus::NoData);
    EXPECT_TRUE(std::isnan(agg.meanDelay));
}

TEST(AggregateTest, SaturatedMajorityWins)
{
    std::vector<SimResult> runs{
        resultWith(RunStatus::Saturated, 0.0),
        resultWith(RunStatus::Saturated, 0.0),
        resultWith(RunStatus::Ok, 1.0),
    };
    const auto agg = aggregateReplications(runs, lightParams());
    EXPECT_EQ(agg.status, RunStatus::Saturated);
    EXPECT_TRUE(agg.saturated);
}

TEST(AggregateTest, AllSaturatedLeaksNoResidualEstimates)
{
    // Regression: the all-tainted branch used to copy runs.front(),
    // leaking one saturated run's pre-abort point estimates into
    // fields a JSON/CSV consumer could mistake for real numbers.
    auto tainted = [](double residue) {
        SimResult res = resultWith(RunStatus::Saturated, residue);
        res.timeAvgQueue = residue * 10.0;
        res.fractionNoWait = 0.5;
        res.completedTasks = 40;
        res.countedTasks = 40;
        res.simulatedTime = 123.0;
        res.kernel.scheduled = 1000;
        res.kernel.fired = 900;
        return res;
    };
    const std::vector<SimResult> runs{tainted(7.0), tainted(9.0)};
    const auto agg = aggregateReplications(runs, lightParams());
    EXPECT_EQ(agg.status, RunStatus::Saturated);
    EXPECT_TRUE(agg.saturated);
    // Every estimate carries the NaN sentinel, not residue.
    EXPECT_TRUE(std::isnan(agg.meanDelay));
    EXPECT_TRUE(std::isnan(agg.normalizedDelay));
    EXPECT_TRUE(std::isnan(agg.timeAvgQueue));
    EXPECT_TRUE(std::isnan(agg.fractionNoWait));
    EXPECT_TRUE(std::isnan(agg.delayP95));
    // The activity counters are facts and sum across replications.
    EXPECT_EQ(agg.completedTasks, 80u);
    EXPECT_EQ(agg.kernel.fired, 1800u);
    EXPECT_DOUBLE_EQ(agg.simulatedTime, 123.0);
    // The tainted aggregate still renders as "inf", never a number.
    EXPECT_EQ(obs::displayValue(agg, agg.normalizedDelay), "inf");
}

std::string
displayValueText(RunStatus status, double value)
{
    SimResult res;
    res.status = status;
    res.saturated = status == RunStatus::Saturated;
    return obs::displayValue(res, value);
}

TEST(DisplayValueTest, StatusDrivesTheCellText)
{
    EXPECT_EQ(displayValueText(RunStatus::Ok, 0.5), "0.5000");
    EXPECT_EQ(displayValueText(RunStatus::Saturated, 0.5), "inf");
    EXPECT_EQ(displayValueText(RunStatus::Truncated, 0.5), "n/a");
    EXPECT_EQ(displayValueText(RunStatus::NoData, std::nan("")), "n/a");
    // Numeric guards independent of status.
    EXPECT_EQ(displayValueText(RunStatus::Ok, std::nan("")), "n/a");
    EXPECT_EQ(displayValueText(RunStatus::Ok, 2e6), "inf");
}

TEST(JsonTest, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(obs::escapeJson("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::escapeJson("tab\there"), "tab\\there");
    EXPECT_EQ(obs::escapeJson("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(obs::escapeJson(std::string("nul\x01") + "x"),
              "nul\\u0001x");
}

TEST(JsonTest, NumbersRoundTripExactly)
{
    for (const double v : {0.1, 1.0 / 3.0, 12345.6789, -2e-300,
                           0.07940152593441678}) {
        const std::string text = obs::jsonNumber(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(obs::jsonNumber(HUGE_VAL), "null");
}

TEST(JsonTest, WriterProducesWellFormedCompactDocument)
{
    std::ostringstream os;
    {
        obs::JsonWriter w(os, /*indent=*/0);
        w.beginObject();
        w.field("a", std::uint64_t{1});
        w.key("b");
        w.beginArray();
        w.value(true);
        w.null();
        w.value("x\"y");
        w.endArray();
        w.field("c", -0.5);
        w.endObject();
    }
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[true,null,\"x\\\"y\"],"
                        "\"c\":-0.5}");
}

obs::RunRecord
sampleRecord()
{
    obs::RunRecord rec;
    rec.curve = "weird \"name\", with comma";
    rec.config = "8/8x1x1 SBUS/2";
    rec.kind = obs::RecordKind::Run;
    rec.rho = 0.3;
    rec.lambda = 0.0375;
    rec.muN = 1.0;
    rec.muS = 0.1;
    rec.seed = 42;
    rec.replication = 1;
    rec.display = "0.2851";
    rec.wallSeconds = 0.25;
    rec.result = resultWith(RunStatus::Ok, 2.851);
    rec.result.kernel.scheduled = 10;
    rec.result.kernel.fired = 9;
    rec.result.kernel.cancelled = 1;
    rec.result.kernel.arenaBytes = 4096;
    rec.result.shardsUsed = 3;
    return rec;
}

/** Extract the raw token following "key": in a JSON text. */
std::string
jsonToken(const std::string &doc, const std::string &key)
{
    const auto at = doc.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    auto from = doc.find(':', at) + 1;
    while (from < doc.size() && doc[from] == ' ')
        ++from;
    const auto to = doc.find_first_of(",\n}", from);
    return doc.substr(from, to - from);
}

TEST(RunLogTest, JsonArtifactCarriesTheRecord)
{
    obs::RunLog log;
    log.setBench("test_bench");
    log.add(sampleRecord());
    exec::SweepStats stats;
    stats.cellsDone = 3;
    stats.cellSecondsTotal = 0.75;
    stats.cellSecondsMax = 0.5;
    log.noteSweep(stats, 1.5);

    std::ostringstream os;
    log.writeJson(os);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"schema\": \"rsin.run_record.v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"bench\": \"test_bench\""), std::string::npos);
    EXPECT_NE(doc.find("weird \\\"name\\\", with comma"),
              std::string::npos);
    EXPECT_EQ(jsonToken(doc, "status"), "\"ok\"");
    EXPECT_EQ(jsonToken(doc, "cells_done"), "3");
    EXPECT_EQ(jsonToken(doc, "shards"), "3");
    // The full-precision delay must round-trip bit-exactly.
    const auto delay = jsonToken(doc, "mean_delay");
    EXPECT_EQ(std::strtod(delay.c_str(), nullptr), 2.851);
    // Braces and brackets must balance (writer invariant).
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
              std::count(doc.begin(), doc.end(), ']'));
}

TEST(RunLogTest, NoDataMetricsSerializeAsNull)
{
    obs::RunLog log;
    auto rec = sampleRecord();
    rec.result = resultWith(RunStatus::NoData, 0.0);
    rec.display = "n/a";
    log.add(rec);
    std::ostringstream os;
    log.writeJson(os);
    const std::string doc = os.str();
    EXPECT_EQ(jsonToken(doc, "status"), "\"no_data\"");
    EXPECT_EQ(jsonToken(doc, "mean_delay"), "null");
}

TEST(RunLogTest, CsvRowsMatchTheHeaderWidth)
{
    obs::RunLog log;
    log.setBench("test_bench");
    log.add(sampleRecord());
    auto nodata = sampleRecord();
    nodata.result = resultWith(RunStatus::NoData, 0.0);
    log.add(nodata);

    std::ostringstream os;
    log.writeCsv(os);
    std::istringstream in(os.str());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u); // header + 2 records

    // Count unquoted commas: every row must match the header width.
    const auto width = [](const std::string &row) {
        std::size_t commas = 0;
        bool quoted = false;
        for (const char c : row) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                ++commas;
        }
        return commas + 1;
    };
    EXPECT_EQ(width(lines[0]), 33u);
    EXPECT_EQ(width(lines[1]), 33u);
    EXPECT_EQ(width(lines[2]), 33u);
    // RFC 4180: the embedded quote is doubled inside a quoted field.
    EXPECT_NE(lines[1].find("\"weird \"\"name\"\", with comma\""),
              std::string::npos);
    // No-data metrics appear as the text "nan", never as 0.
    EXPECT_NE(lines[2].find(",no_data,"), std::string::npos);
    EXPECT_NE(lines[2].find(",nan,"), std::string::npos);
}

TEST(RunLogTest, ConcurrentAddsFromPoolWorkersAreAllKept)
{
    // Figure benches append records from sweep workers; under TSan
    // this is the check that RunLog's internal mutex covers add().
    obs::RunLog log;
    exec::ThreadPool pool(4);
    pool.parallelFor(64, [&](std::size_t i) {
        obs::RunRecord rec = sampleRecord();
        rec.seed = i;
        log.add(std::move(rec));
    });
    std::set<std::uint64_t> seeds;
    for (const obs::RunRecord &rec : log.records())
        seeds.insert(rec.seed);
    EXPECT_EQ(log.size(), 64u);
    EXPECT_EQ(seeds.size(), 64u);
}

TEST(RunLogTest, CsvRoundTripsEvilCurveNamesThroughCsvSplit)
{
    // Campaign matrices put user-supplied tokens into curve labels, so
    // the CSV artifact must survive the full RFC 4180 gauntlet and
    // parse back field-exact with the shared csvSplit helper.
    obs::RunLog log;
    auto rec = sampleRecord();
    rec.curve = "cfg \"X\", ratio=0.5\nsecond line";
    rec.config = "8/1x8x8 OMEGA/2";
    log.add(rec);

    std::ostringstream os;
    log.writeCsv(os);
    const std::string doc = os.str();
    // The embedded newline lives inside a quoted field, so the record
    // spans two physical lines: header + 2.
    const auto header_end = doc.find('\n');
    const std::vector<std::string> header =
        csvSplit(doc.substr(0, header_end));
    const std::vector<std::string> row = csvSplit(
        doc.substr(header_end + 1,
                   doc.size() - header_end - 2)); // trailing newline
    ASSERT_EQ(row.size(), header.size());
    EXPECT_EQ(header[1], "curve");
    EXPECT_EQ(row[1], rec.curve);
    EXPECT_EQ(row[2], rec.config);
}

TEST(RunLogTest, WriteFileReplacesArtifactsAtomically)
{
    const std::string path =
        ::testing::TempDir() + "rsin_runlog_artifact.json";
    obs::RunLog log;
    log.add(sampleRecord());
    log.writeFile(path, obs::Format::Json);
    const auto first = common::readFile(path);
    ASSERT_TRUE(first.has_value());

    // Overwriting goes through the same tmp+rename path: afterwards
    // the artifact is the complete new document and no pid-suffixed
    // temporary is left beside it.
    log.add(sampleRecord());
    log.writeFile(path, obs::Format::Json);
    const auto second = common::readFile(path);
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(*first, *second);
    EXPECT_FALSE(common::fileExists(path + ".tmp." +
                                    std::to_string(::getpid())));
    common::removeFile(path);
}

TEST(RunRecordJsonTest, ParseInvertsTheWriterByteExactly)
{
    // The ledger's resume bit-identity rests on this inversion: parse
    // then re-serialize must reproduce the exact bytes, including the
    // NaN -> null -> NaN trip for tainted metrics.
    for (const bool tainted : {false, true}) {
        auto rec = sampleRecord();
        if (tainted) {
            rec.result = resultWith(RunStatus::NoData, 0.0);
            rec.display = "n/a";
        }
        std::ostringstream os;
        {
            obs::JsonWriter w(os, 0);
            obs::writeRunRecordJson(w, rec);
        }
        const std::string doc = os.str();
        const auto parsed =
            obs::parseRunRecordJson(obs::parseJson(doc));
        EXPECT_EQ(parsed.curve, rec.curve);
        EXPECT_EQ(parsed.seed, rec.seed);
        EXPECT_EQ(parsed.result.status, rec.result.status);
        std::ostringstream again;
        {
            obs::JsonWriter w(again, 0);
            obs::writeRunRecordJson(w, parsed);
        }
        EXPECT_EQ(again.str(), doc);
    }
}

TEST(RunRecordJsonTest, ParserRejectsMalformedDocuments)
{
    EXPECT_THROW(obs::parseJson("{\"a\":1"), FatalError);
    EXPECT_THROW(obs::parseJson("{\"a\":1} trailing"), FatalError);
    EXPECT_THROW(obs::parseJson("{'a':1}"), FatalError);
    EXPECT_THROW(obs::parseRunRecordJson(obs::parseJson("{}")),
                 FatalError);
}

TEST(JsonTest, UnicodeEscapesFoldToUtf8)
{
    // ASCII range: one byte out.
    EXPECT_EQ(obs::parseJson("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(obs::parseJson("\"\\u0001\"").asString(),
              std::string(1, '\x01'));
    // Latin-1 range: two-byte UTF-8 fold (e-acute, U+00E9).
    EXPECT_EQ(obs::parseJson("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(obs::parseJson("\"\\u00E9\"").asString(), "\xc3\xa9");
    // Writer round trip: a control character escapes to \u00xx and
    // parses back to the original byte.
    const std::string evil = std::string("a\x02") + "b";
    EXPECT_EQ(
        obs::parseJson("\"" + obs::escapeJson(evil) + "\"").asString(),
        evil);
    // Malformed escapes are errors, not silent truncations.
    EXPECT_THROW(obs::parseJson("\"\\u12\""), FatalError);
    EXPECT_THROW(obs::parseJson("\"\\u12gz\""), FatalError);
    EXPECT_THROW(obs::parseJson("\"\\q\""), FatalError);
}

TEST(JsonTest, DeeplyNestedArraysParse)
{
    // Ledger replay never sees documents this deep, but the parser
    // must not misbehave before the recursion would become a real
    // stack concern.
    constexpr int kDepth = 256;
    std::string doc;
    for (int i = 0; i < kDepth; ++i)
        doc += '[';
    doc += "7";
    for (int i = 0; i < kDepth; ++i)
        doc += ']';
    obs::JsonValue v = obs::parseJson(doc);
    int depth = 0;
    const obs::JsonValue *node = &v;
    while (node->kind == obs::JsonValue::Kind::Array) {
        ASSERT_EQ(node->items.size(), 1u);
        node = &node->items[0];
        ++depth;
    }
    EXPECT_EQ(depth, kDepth);
    EXPECT_EQ(node->asU64(), 7u);
}

TEST(JsonTest, DuplicateKeysKeepOrderAndFindReturnsTheFirst)
{
    const obs::JsonValue v =
        obs::parseJson("{\"k\": 1, \"other\": 2, \"k\": 3}");
    ASSERT_EQ(v.members.size(), 3u); // preserved for re-emission
    EXPECT_EQ(v.members[0].first, "k");
    EXPECT_EQ(v.members[2].first, "k");
    const obs::JsonValue *hit = v.find("k");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->asU64(), 1u); // first wins, matching ledger replay
}

TEST(JsonTest, ExtremeDoublesSurviveTheWriterParserTrip)
{
    // DBL_MAX, the smallest denormal, and a negative denormal: %.17g
    // emission followed by parseJson must recover the exact bits.
    for (const double v : {DBL_MAX, DBL_MIN, 5e-324, -5e-324,
                           -DBL_MAX}) {
        const std::string token = obs::jsonNumber(v);
        const obs::JsonValue parsed = obs::parseJson(token);
        EXPECT_EQ(parsed.asDouble(), v) << token;
        EXPECT_EQ(parsed.raw, token); // raw token kept verbatim
    }
    // Integer-exact access at the uint64 edge goes through raw, not
    // through the double field.
    const obs::JsonValue big = obs::parseJson("18446744073709551615");
    EXPECT_EQ(big.asU64(), UINT64_MAX);
}

TEST(RunLogTest, FormatParsing)
{
    EXPECT_EQ(obs::parseFormat("json"), obs::Format::Json);
    EXPECT_EQ(obs::parseFormat("csv"), obs::Format::Csv);
    EXPECT_THROW(obs::parseFormat("xml"), FatalError);
}

TEST(KernelCountersTest, SimulationReportsKernelActivity)
{
    SimOptions opts;
    opts.warmupTasks = 10;
    opts.measureTasks = 200;
    const auto res = runSbus(opts);
    EXPECT_GT(res.kernel.fired, 0u);
    EXPECT_GE(res.kernel.scheduled, res.kernel.fired);
    EXPECT_GT(res.kernel.arenaBytes, 0u);
}

TEST(SweepObserverTest, CountsCellsAndTimes)
{
    exec::SweepObserver observer("unit");
    observer.addWork(3);
    EXPECT_EQ(observer.totalCells(), 3u);
    exec::SweepCell cell;
    observer.cellDone(cell, 0.5);
    observer.cellDone(cell, 1.5);
    observer.cellDone(cell, 1.0);
    const auto stats = observer.stats();
    EXPECT_EQ(stats.cellsDone, 3u);
    EXPECT_DOUBLE_EQ(stats.cellSecondsTotal, 3.0);
    EXPECT_DOUBLE_EQ(stats.cellSecondsMax, 1.5);
}

TEST(SweepObserverTest, ProgressLineReachesTheStream)
{
    std::ostringstream os;
    exec::SweepObserver observer("label", &os);
    observer.addWork(2);
    exec::SweepCell cell;
    observer.cellDone(cell, 0.1);
    observer.cellDone(cell, 0.1);
    EXPECT_NE(os.str().find("label: 1/2 cells"), std::string::npos);
    EXPECT_NE(os.str().find("label: 2/2 cells"), std::string::npos);
}

TEST(ArgsTest, NegativeJobsAreRejected)
{
    EXPECT_THROW(ArgParser::resolveJobs(-3), FatalError);
    const char *argv[] = {"prog", "--jobs", "-2"};
    const ArgParser args(3, argv, {}, {"jobs"});
    EXPECT_THROW(args.getJobs(), FatalError);
    EXPECT_GE(ArgParser::resolveJobs(0), 1u);
    EXPECT_EQ(ArgParser::resolveJobs(4), 4u);
}

} // namespace
} // namespace rsin
