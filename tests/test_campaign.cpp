/**
 * @file
 * Campaign planner and ledger tests: deterministic matrix expansion
 * (collapsed dimensions, unique keys, coordinate-pure seeds), ledger
 * line round-trips and torn-record detection, writer seal/recover
 * behavior, manifest pinning -- and the headline crash-consistency
 * integration test: SIGKILL a campaign mid-run (plus a deliberately
 * torn segment tail), resume it, and require the merged record set to
 * be bit-identical to an uninterrupted run.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "rsin/campaign.hpp"

namespace {

using namespace rsin;

CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.configs = {SystemConfig::parse("8/8x1x1 SBUS/2"),
                    SystemConfig::parse("8/1x8x8 OMEGA/2")};
    spec.schedulers = {"default", "address-first"};
    spec.workloads = {"exp", "det"};
    spec.ratios = {0.1, 0.5};
    spec.rhoSteps = 3;
    spec.tasks = 500;
    spec.replications = 2;
    spec.seed = 7;
    return spec;
}

/** Fresh empty scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "rsin_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

obs::RunRecord
sampleRecord(double rho, std::uint64_t seed)
{
    obs::RunRecord rec;
    rec.curve = "evil \"curve\", with commas\nand a newline";
    rec.config = "8/8x1x1 SBUS/2";
    rec.kind = obs::RecordKind::Run;
    rec.rho = rho;
    rec.lambda = 0.123456789012345678;
    rec.muN = 1.0;
    rec.muS = 0.1;
    rec.seed = seed;
    rec.replication = 1;
    rec.display = "0.12345";
    rec.wallSeconds = 0.0;
    rec.result.status = RunStatus::Ok;
    rec.result.meanDelay = 1.2345678901234567;
    rec.result.completedTasks = 500;
    rec.result.countedTasks = 500;
    rec.result.kernel.scheduled = 12345;
    rec.result.kernel.fired = 12000;
    return rec;
}

TEST(CampaignPlanTest, ExpandsMatrixAndCollapsesUnusedDimensions)
{
    const CampaignSpec spec = smallSpec();
    const auto cells = planCampaign(spec);
    // OMEGA multiplies schedulers x workloads x ratios = 2*2*2 = 8
    // combos; SBUS has no scheduler choice, so 1*2*2 = 4.  Each combo
    // spans 3 rho steps x 2 replications.  Both configs have an exact
    // chain (SBUS always; 8/1x8x8 OMEGA/2 is in LD-QBD range), so
    // each adds 2*3 analytic cells.
    const std::size_t sim = (8 + 4) * 3 * 2;
    const std::size_t analytic = 2 * (2 * 3);
    ASSERT_EQ(cells.size(), sim + analytic);

    std::set<std::string> keys;
    std::size_t analytic_seen = 0;
    for (const auto &cell : cells) {
        EXPECT_TRUE(keys.insert(cell.key).second)
            << "duplicate key " << cell.key;
        if (cell.analytic) {
            ++analytic_seen;
            EXPECT_EQ(cell.replication, -1);
            EXPECT_EQ(cell.seed, 0u);
        }
    }
    EXPECT_EQ(analytic_seen, analytic);
}

TEST(CampaignPlanTest, SeedsAreCoordinatePureAndUnique)
{
    const CampaignSpec spec = smallSpec();
    const auto cells = planCampaign(spec);
    std::set<std::uint64_t> seeds;
    for (const auto &cell : cells) {
        if (cell.analytic)
            continue;
        EXPECT_EQ(cell.seed,
                  mixSeed(spec.seed, cell.comboIndex, cell.rhoIndex,
                          static_cast<std::uint64_t>(
                              cell.replication)));
        EXPECT_TRUE(seeds.insert(cell.seed).second);
    }
    // Replanning is a pure function: identical keys and seeds.
    const auto again = planCampaign(spec);
    ASSERT_EQ(again.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(again[i].key, cells[i].key);
        EXPECT_EQ(again[i].seed, cells[i].seed);
    }
}

TEST(CampaignPlanTest, ValidateRejectsMalformedMatrices)
{
    CampaignSpec spec = smallSpec();
    spec.schedulers = {"definitely-not-a-scheduler"};
    EXPECT_THROW(planCampaign(spec), FatalError);
    spec = smallSpec();
    spec.configs.clear();
    EXPECT_THROW(planCampaign(spec), FatalError);
    spec = smallSpec();
    spec.ratios = {-0.5};
    EXPECT_THROW(planCampaign(spec), FatalError);
    spec = smallSpec();
    spec.rhoMin = 0.9;
    spec.rhoMax = 0.1;
    EXPECT_THROW(planCampaign(spec), FatalError);
}

TEST(CampaignPlanTest, CanonicalSpecPinsTheMatrix)
{
    const CampaignSpec spec = smallSpec();
    CampaignSpec other = spec;
    EXPECT_EQ(canonicalSpec(spec), canonicalSpec(other));
    other.ratios = {0.1};
    EXPECT_NE(canonicalSpec(spec), canonicalSpec(other));
    other = spec;
    other.seed = 8;
    EXPECT_NE(canonicalSpec(spec), canonicalSpec(other));
}

TEST(CampaignPlanTest, CellHelpersFollowTheTokens)
{
    CampaignSpec spec = smallSpec();
    const auto cells = planCampaign(spec);
    for (const auto &cell : cells) {
        if (cell.analytic)
            continue;
        const auto params = cellWorkload(spec, cell);
        EXPECT_DOUBLE_EQ(params.muS, spec.muN * cell.ratio);
        EXPECT_DOUBLE_EQ(params.lambda, cell.lambda);
        const auto model = cellModel(spec, cell);
        if (spec.schedulers[cell.schedIndex] == "address-first") {
            EXPECT_EQ(model.omega.scheduling,
                      OmegaScheduling::AddressFirstFree);
        } else {
            EXPECT_EQ(model.omega.scheduling,
                      OmegaScheduling::Distributed);
        }
    }
}

TEST(LedgerLineTest, RoundTripsEvilStringsByteExactly)
{
    const obs::RunRecord rec = sampleRecord(0.5, 42);
    const std::string key = "run|evil \"key\"|with,commas";
    const std::string line = obs::formatLedgerLine(key, rec);

    obs::LedgerEntry entry;
    ASSERT_TRUE(obs::parseLedgerLine(line, entry));
    EXPECT_EQ(entry.key, key);
    EXPECT_EQ(entry.record.curve, rec.curve);
    EXPECT_EQ(entry.record.seed, rec.seed);
    EXPECT_EQ(entry.record.result.status, RunStatus::Ok);
    // Re-serializing the parsed record reproduces the bytes exactly
    // -- the property the resume bit-identity guarantee rests on.
    EXPECT_EQ(obs::formatLedgerLine(entry.key, entry.record), line);
}

TEST(LedgerLineTest, DetectsTornAndCorruptLines)
{
    const std::string line =
        obs::formatLedgerLine("run|cell", sampleRecord(0.3, 9));
    obs::LedgerEntry entry;
    // Every strict prefix is torn: no prefix may parse as valid.
    for (std::size_t cut : {line.size() - 1, line.size() / 2,
                            std::size_t{10}, std::size_t{0}})
        EXPECT_FALSE(obs::parseLedgerLine(line.substr(0, cut), entry))
            << "prefix of length " << cut << " accepted";
    // A flipped byte inside the record payload (still valid JSON)
    // breaks the crc.
    std::string corrupt = line;
    const std::size_t pos = corrupt.find("\"record\":{\"curve\"");
    ASSERT_NE(pos, std::string::npos);
    corrupt[pos + 12] = 'x'; // "curve" -> "cxrve"
    EXPECT_FALSE(obs::parseLedgerLine(corrupt, entry));
}

TEST(LedgerWriterTest, AppendsSealsAndReplays)
{
    const std::string dir = scratchDir("ledger_seal");
    {
        obs::LedgerWriter writer(dir, 0, "spec-A", 4);
        for (int i = 0; i < 10; ++i)
            writer.append(
                "cell-" + std::to_string(i),
                sampleRecord(0.1 * i, static_cast<std::uint64_t>(i)));
        writer.close();
    }
    // 10 records at sealEvery=4: two full segments + the remainder
    // sealed by close().
    EXPECT_EQ(common::listFiles(dir, ".jsonl").size(), 3u);
    EXPECT_TRUE(common::listFiles(dir, ".open").empty());

    const auto replay = obs::replayLedger(dir, "spec-A");
    EXPECT_EQ(replay.entries.size(), 10u);
    EXPECT_EQ(replay.tornRecords, 0u);
    EXPECT_EQ(replay.sealedSegments, 3u);
    EXPECT_EQ(replay.openSegments, 0u);
}

TEST(LedgerWriterTest, LastRecordWinsOnDuplicateKey)
{
    const std::string dir = scratchDir("ledger_dup");
    {
        obs::LedgerWriter writer(dir, 0, "spec-A");
        writer.append("cell", sampleRecord(0.1, 1));
        writer.append("cell", sampleRecord(0.2, 2));
        writer.close();
    }
    const auto replay = obs::replayLedger(dir, "spec-A");
    ASSERT_EQ(replay.entries.size(), 1u);
    EXPECT_EQ(replay.entries.at("cell").record.seed, 2u);
}

TEST(LedgerWriterTest, RecoversCrashedOpenSegmentDroppingTornTail)
{
    const std::string dir = scratchDir("ledger_recover");
    common::ensureDir(dir);
    // Fabricate a crashed shard: two whole records, then a torn tail
    // (half a line, no newline) -- exactly what SIGKILL mid-append
    // leaves behind.
    const std::string l0 =
        obs::formatLedgerLine("cell-0", sampleRecord(0.1, 1));
    const std::string l1 =
        obs::formatLedgerLine("cell-1", sampleRecord(0.2, 2));
    const std::string l2 =
        obs::formatLedgerLine("cell-2", sampleRecord(0.3, 3));
    {
        std::ofstream os(dir + "/seg-0000-0000.open",
                         std::ios::binary);
        os << l0 << "\n" << l1 << "\n"
           << l2.substr(0, l2.size() / 2);
    }
    // Replay sees the valid prefix and reports the tear without
    // touching the files.
    const auto before = obs::replayLedger(dir, "");
    EXPECT_EQ(before.entries.size(), 2u);
    EXPECT_EQ(before.tornRecords, 1u);
    EXPECT_EQ(before.openSegments, 1u);

    EXPECT_EQ(obs::recoverLedger(dir), 1u);
    EXPECT_TRUE(common::listFiles(dir, ".open").empty());
    const auto after = obs::replayLedger(dir, "");
    EXPECT_EQ(after.entries.size(), 2u);
    EXPECT_EQ(after.tornRecords, 0u);
    EXPECT_EQ(after.sealedSegments, 1u);

    // A new writer for the same shard resumes numbering past the
    // recovered segment instead of clobbering it.
    obs::LedgerWriter writer(dir, 0, "spec-A");
    writer.append("cell-2", sampleRecord(0.3, 3));
    writer.close();
    EXPECT_EQ(obs::replayLedger(dir, "spec-A").entries.size(), 3u);
}

TEST(LedgerWriterTest, RefusesForeignManifest)
{
    const std::string dir = scratchDir("ledger_manifest");
    {
        obs::LedgerWriter writer(dir, 0, "spec-A");
        writer.append("cell", sampleRecord(0.1, 1));
    }
    EXPECT_THROW(obs::LedgerWriter(dir, 0, "spec-B"), FatalError);
    EXPECT_THROW(obs::replayLedger(dir, "spec-B"), FatalError);
    EXPECT_EQ(obs::replayLedger(dir, "spec-A").entries.size(), 1u);
}

TEST(LedgerWriterTest, ConcurrentAppendsFromPoolWorkersReplayWhole)
{
    // Campaign workers append through one writer; every record must
    // land whole and every append must see a distinct running count.
    const std::string dir = scratchDir("ledger_concurrent");
    std::vector<std::size_t> counts(40);
    {
        obs::LedgerWriter writer(dir, 0, "spec-A", 8);
        exec::ThreadPool pool(4);
        pool.parallelFor(counts.size(), [&](std::size_t i) {
            counts[i] = writer.append(
                "cell-" + std::to_string(i),
                sampleRecord(0.01 * static_cast<double>(i), i));
        });
        writer.close();
    }
    std::sort(counts.begin(), counts.end());
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], i + 1);
    const auto replay = obs::replayLedger(dir, "spec-A");
    EXPECT_EQ(replay.entries.size(), counts.size());
    EXPECT_EQ(replay.tornRecords, 0u);
}

#ifdef RSIN_CAMPAIGN_BIN

/** Run the campaign binary; returns its raw wait status. */
int
runCampaign(const std::string &ledger, const std::string &extra)
{
    const std::string cmd =
        std::string(RSIN_CAMPAIGN_BIN) +
        " '8/8x1x1 SBUS/2;8/1x8x8 OMEGA/2' --ratios 0.5 --steps 3" +
        " --tasks 1500 --replications 2 --seed 11 --deterministic" +
        " --ledger " + ledger + " " + extra + " > " + ledger +
        ".log 2>&1";
    return std::system(cmd.c_str());
}

/** Sorted multiset of all record lines across a ledger's segments. */
std::multiset<std::string>
ledgerLines(const std::string &dir)
{
    std::multiset<std::string> lines;
    for (const char *suffix : {".jsonl", ".open"}) {
        for (const auto &name : common::listFiles(dir, suffix)) {
            const auto content = common::readFile(dir + "/" + name);
            std::size_t pos = 0;
            while (pos < content->size()) {
                const std::size_t nl = content->find('\n', pos);
                if (nl == std::string::npos)
                    break;
                lines.insert(content->substr(pos, nl - pos));
                pos = nl + 1;
            }
        }
    }
    return lines;
}

TEST(CampaignResumeTest, KillAndResumeIsBitIdenticalToOneShot)
{
    const std::string oneshot = scratchDir("campaign_oneshot");
    const std::string crashed = scratchDir("campaign_crashed");

    ASSERT_EQ(runCampaign(oneshot, ""), 0);

    // Kill roughly half way: 6 analytic cells (3 SBUS + 3 OMEGA
    // exact-chain) + one simulation.
    const int status = runCampaign(crashed, "--kill-after-cells 7");
    ASSERT_TRUE(WIFEXITED(status) || WIFSIGNALED(status));
    ASSERT_NE(status, 0);
    // Through /bin/sh the SIGKILLed child surfaces as exit 128+9.
    if (WIFEXITED(status)) {
        EXPECT_EQ(WEXITSTATUS(status), 137);
    }

    // The crash left an in-progress segment; tear its tail further by
    // appending half a record line with no newline, simulating a kill
    // mid-write rather than between writes.
    const auto open = common::listFiles(crashed, ".open");
    ASSERT_EQ(open.size(), 1u);
    {
        const std::string torn =
            obs::formatLedgerLine("torn", sampleRecord(0.9, 99));
        std::ofstream os(crashed + "/" + open.front(),
                         std::ios::binary | std::ios::app);
        os << torn.substr(0, torn.size() / 2);
    }

    ASSERT_EQ(runCampaign(crashed, ""), 0);

    const auto a = ledgerLines(oneshot);
    const auto b = ledgerLines(crashed);
    EXPECT_EQ(a.size(), 18u);
    // Bit-identity of the merged record sets: every surviving
    // pre-crash record byte-equals its uninterrupted twin, and the
    // re-run cells reproduced the lost bytes exactly.
    EXPECT_EQ(a, b);

    // Both runs persisted the solver memo next to the ledger.
    EXPECT_TRUE(common::fileExists(oneshot + "/analysis_cache.txt"));
    EXPECT_TRUE(common::fileExists(crashed + "/analysis_cache.txt"));
}

TEST(CampaignExportTest, FreshExportCarriesSweepAndAnalyticWallTimes)
{
    // Without --deterministic the export says what the campaign cost:
    // the sweep header its wall time, and every analytic record the
    // time of its solve (or cache lookup).
    const std::string dir = scratchDir("campaign_walls");
    const std::string out = dir + ".json";
    const std::string cmd =
        std::string(RSIN_CAMPAIGN_BIN) +
        " '8/8x1x1 SBUS/2' --ratios 0.5 --steps 2 --tasks 300" +
        " --seed 5 --ledger " + dir + " --out " + out + " > " + dir +
        ".log 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const auto text = common::readFile(out);
    ASSERT_TRUE(text.has_value());
    const obs::JsonValue doc = obs::parseJson(*text);
    const obs::JsonValue *sweep = doc.find("sweep");
    ASSERT_NE(sweep, nullptr);
    ASSERT_NE(sweep->find("wall_seconds"), nullptr);
    EXPECT_GT(sweep->find("wall_seconds")->asDouble(), 0.0);
    const obs::JsonValue *records = doc.find("records");
    ASSERT_NE(records, nullptr);
    std::size_t analytic = 0;
    for (const obs::JsonValue &rec : records->items) {
        if (rec.find("kind")->asString() != "analytic")
            continue;
        ++analytic;
        EXPECT_GT(rec.find("wall_seconds")->asDouble(), 0.0);
    }
    EXPECT_EQ(analytic, 2u);
}

TEST(CampaignExportTest, SweepAnalyticRecordsCarryTheirSolveTime)
{
    // rsin_sweep --analytic builds its records with the same
    // obs::analyticRecord as the campaign: solve time, mean queue
    // length and no-wait fraction ride along.
    const std::string out = scratchDir("sweep_analytic") + ".json";
    const std::string cmd =
        std::string(RSIN_SWEEP_BIN) +
        " '8/8x1x1 SBUS/2' --ratio 0.5 --steps 2 --tasks 300" +
        " --analytic --out " + out + " > " + out + ".log 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const auto text = common::readFile(out);
    ASSERT_TRUE(text.has_value());
    const obs::JsonValue doc = obs::parseJson(*text);
    const obs::JsonValue *records = doc.find("records");
    ASSERT_NE(records, nullptr);
    std::size_t analytic = 0;
    for (const obs::JsonValue &rec : records->items) {
        if (rec.find("kind")->asString() != "analytic")
            continue;
        ++analytic;
        EXPECT_GT(rec.find("wall_seconds")->asDouble(), 0.0);
        const obs::JsonValue *res = rec.find("result");
        ASSERT_NE(res, nullptr);
        EXPECT_GT(res->find("time_avg_queue")->asDouble(), 0.0);
        EXPECT_GT(res->find("fraction_no_wait")->asDouble(), 0.0);
    }
    EXPECT_EQ(analytic, 2u);
}

TEST(CampaignResumeTest, AnalyticCellsAreServedFromPersistedCache)
{
    const std::string dir = scratchDir("campaign_cache");
    ASSERT_EQ(runCampaign(dir, ""), 0);
    const auto full = ledgerLines(dir);

    // Drop every segment but keep manifest + analysis cache: the next
    // run must re-run all cells, serving the analytic ones from the
    // persisted memo -- and reproduce the exact same bytes.
    for (const auto &name : common::listFiles(dir, ".jsonl"))
        common::removeFile(dir + "/" + name);
    ASSERT_EQ(runCampaign(dir, ""), 0);
    EXPECT_EQ(ledgerLines(dir), full);

    const auto log = common::readFile(dir + ".log");
    ASSERT_TRUE(log.has_value());
    EXPECT_NE(log->find("cached analytic solves"), std::string::npos);
}

TEST(CampaignResumeTest, ProcessShardsPartitionTheCells)
{
    const std::string dir = scratchDir("campaign_shards");
    const std::string whole = scratchDir("campaign_shards_ref");
    ASSERT_EQ(runCampaign(whole, ""), 0);
    // Two processes, disjoint halves of the plan, one ledger.
    ASSERT_EQ(runCampaign(dir, "--shard-count 2 --shard-index 0"), 0);
    ASSERT_EQ(runCampaign(dir, "--shard-count 2 --shard-index 1"), 0);
    EXPECT_EQ(ledgerLines(dir), ledgerLines(whole));
}

#endif // RSIN_CAMPAIGN_BIN

} // namespace
