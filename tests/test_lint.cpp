/**
 * @file
 * Tests for the rsin-lint rule engine (tools/rsin_lint).
 *
 * Every rule is proven to fire on a known-bad fixture with the right
 * rule ID and line; a clean fixture and a correctly-suppressed
 * violation both pass; a suppression without a reason string (or with
 * an unknown rule name) is itself an error and does not silence the
 * violation it covers.  The graph rules (R6 layering, R7 cycles) are
 * driven through the multi-file lintFiles() API; schema drift (R12)
 * through lintFiles() with a LintOptions manifest; the output layer is
 * covered by a SARIF structure test (including full finding-span
 * regions) and a baseline round-trip.  Fixtures live in
 * tests/lint_fixtures/ and are linted under virtual paths, because
 * rule scoping is directory-based.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"
#include "output.hpp"
#include "xtu_rules.hpp"

namespace {

using rsin::lint::Finding;
using rsin::lint::lintFiles;
using rsin::lint::lintSource;
using rsin::lint::SourceFile;

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(RSIN_LINT_FIXTURE_DIR) + "/" +
                             name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<Finding>
lintFixture(const std::string &virtualPath, const std::string &name)
{
    return lintSource(virtualPath, readFixture(name));
}

std::size_t
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<std::size_t>(std::count_if(
        findings.begin(), findings.end(),
        [&](const Finding &f) { return f.rule == rule; }));
}

bool
hasFindingAt(const std::vector<Finding> &findings,
             const std::string &rule, std::size_t line)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) {
                           return f.rule == rule && f.line == line;
                       });
}

TEST(LintR1, FlagsAmbientRandomnessAndWallClock)
{
    const auto findings =
        lintFixture("src/des/bad_r1.cpp", "bad_r1.cpp");
    // srand + time(nullptr) share a line; rand() and system_clock
    // each have their own.
    EXPECT_EQ(countRule(findings, "R1"), 4u) <<
        rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R1", 13)); // srand(time(nullptr))
    EXPECT_TRUE(hasFindingAt(findings, "R1", 14)); // std::rand()
    EXPECT_TRUE(hasFindingAt(findings, "R1", 20)); // system_clock
}

TEST(LintR1, RngImplementationIsExempt)
{
    const auto findings =
        lintSource("src/common/rng.cpp",
                   "std::uint64_t seedFromEntropy() {\n"
                   "    std::random_device dev;\n"
                   "    return dev();\n"
                   "}\n");
    EXPECT_EQ(countRule(findings, "R1"), 0u);
}

TEST(LintR1, OutsideScannedDirectoriesStillApplies)
{
    // R1 is tree-wide (only rng.cpp is exempt): a bench file drawing
    // wall-clock entropy is as much a determinism bug as a model file.
    const auto findings = lintSource(
        "bench/bad.cpp", "int s = (int)time(nullptr);\n");
    EXPECT_EQ(countRule(findings, "R1"), 1u);
}

TEST(LintR2, FlagsUnorderedContainersInDeterministicDirs)
{
    const auto findings =
        lintFixture("src/rsin/bad_r2.cpp", "bad_r2.cpp");
    EXPECT_EQ(countRule(findings, "R2"), 1u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R2", 10)); // member declaration
}

TEST(LintR2, OtherDirectoriesMayUseUnorderedContainers)
{
    const auto findings =
        lintFixture("src/la/bad_r2.cpp", "bad_r2.cpp");
    EXPECT_EQ(countRule(findings, "R2"), 0u);
}

TEST(LintR3, FlagsFloatTypeAndLiterals)
{
    const auto findings =
        lintFixture("src/markov/bad_r3.cpp", "bad_r3.cpp");
    // Three `float` tokens + two 0.0f literals.
    EXPECT_EQ(countRule(findings, "R3"), 5u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R3", 5)); // return type
    EXPECT_TRUE(hasFindingAt(findings, "R3", 6)); // parameters
    EXPECT_TRUE(hasFindingAt(findings, "R3", 8)); // 0.0f
    EXPECT_TRUE(hasFindingAt(findings, "R3", 9)); // 0.0f
}

TEST(LintR3, HexLiteralsAndIdentifiersAreNotFloatLiterals)
{
    const auto findings = lintSource(
        "src/la/h.hpp",
        "int mask = 0x1f;\nint buf2f = 3;\ndouble d = 1.0;\n");
    EXPECT_EQ(countRule(findings, "R3"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR4, FlagsStdoutInLibraryCode)
{
    const auto findings =
        lintFixture("src/sched/bad_r4.cpp", "bad_r4.cpp");
    EXPECT_EQ(countRule(findings, "R4"), 2u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R4", 11)); // std::cout
    EXPECT_TRUE(hasFindingAt(findings, "R4", 12)); // std::printf
}

TEST(LintR4, OutputLayerIsExempt)
{
    const std::string snippet = "void f() { std::cout << 1; }\n";
    EXPECT_EQ(countRule(lintSource("src/obs/run_log.cpp", snippet),
                        "R4"),
              0u);
    EXPECT_EQ(countRule(lintSource("src/common/table.cpp", snippet),
                        "R4"),
              0u);
    EXPECT_EQ(countRule(lintSource("bench/fig.cpp", snippet), "R4"),
              0u); // benches print their tables
    EXPECT_EQ(countRule(lintSource("src/la/matrix.cpp", snippet), "R4"),
              1u);
}

// ---------------------------------------------------------------------
// R5: flow-sensitive status-before-metric.
// ---------------------------------------------------------------------

TEST(LintR5, FlagsMetricReadWithoutStatusCheck)
{
    const auto findings =
        lintFixture("bench/bad_r5.cpp", "bad_r5.cpp");
    EXPECT_EQ(countRule(findings, "R5"), 2u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R5", 13)); // never checked
    EXPECT_TRUE(hasFindingAt(findings, "R5", 24)); // check left scope
}

TEST(LintR5, DominatingCheckInEnclosingScopeCovers)
{
    const auto findings = lintSource(
        "bench/ok.cpp",
        "double f() {\n"
        "    auto res = simulate(1);\n"
        "    if (!res.ok()) return 0.0;\n"
        "    double total = 0.0;\n"
        "    for (int i = 0; i < 3; ++i) {\n"
        "        total += res.meanDelay;\n"
        "    }\n"
        "    return total;\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "R5"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR5, EvidenceDoesNotLeakAcrossFunctions)
{
    // The old line-window heuristic accepted a check in a *previous*
    // function if it was close enough; the scope chain must not.
    const auto findings = lintSource(
        "bench/leak.cpp",
        "void check() {\n"
        "    auto a = simulate(1);\n"
        "    if (!a.ok()) return;\n"
        "}\n"
        "double peek() {\n"
        "    auto b = simulate(2);\n"
        "    return b.meanDelay;\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "R5"), 1u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R5", 7));
}

TEST(LintR5, AnalyticResultsAreNotTainted)
{
    // analyzeSbus returns a closed-form solution with no RunStatus;
    // the old heuristic needed allow(R5) comments for this pattern.
    const auto findings = lintSource(
        "bench/analytic.cpp",
        "void f() {\n"
        "    const auto sol = analyzeSbus(cfg, lambda, mu_n, mu_s);\n"
        "    print(sol.normalizedDelay);\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "R5"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR5, DirectProducerCallReadIsStillFlagged)
{
    const auto findings = lintSource(
        "examples/direct.cpp",
        "double f() { return simulate(cfg).meanDelay; }\n");
    EXPECT_EQ(countRule(findings, "R5"), 1u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR5, AssignmentIsProductionNotConsumption)
{
    const auto findings = lintSource(
        "examples/make.cpp",
        "void f() {\n"
        "    auto r = simulate(1);\n"
        "    r.meanDelay = 1.0;\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "R5"), 0u)
        << rsin::lint::formatFindings(findings);
}

// ---------------------------------------------------------------------
// R6/R7: include-graph rules.
// ---------------------------------------------------------------------

TEST(LintR6, InvertedIncludeIsCaught)
{
    // common (layer 0) reaching up into exec (layer 5).
    const auto findings = lintFixture("src/common/clock.hpp",
                                      "layering_bad_include.hpp");
    EXPECT_EQ(countRule(findings, "R6"), 1u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R6", 4));
}

TEST(LintR6, SameRankSiblingsMayNotInclude)
{
    const auto findings = lintSource(
        "src/queueing/q.hpp", "#include \"packet/switch.hpp\"\n");
    EXPECT_EQ(countRule(findings, "R6"), 1u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR6, DownwardIncludesAreClean)
{
    const auto findings = lintSource(
        "src/rsin/system.hpp",
        "#include \"des/calendar.hpp\"\n"
        "#include \"common/rng.hpp\"\n"
        "#include \"workload/workload.hpp\"\n");
    EXPECT_EQ(countRule(findings, "R6"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR6, LeafDirectoriesMayIncludeEverything)
{
    const auto findings = lintSource(
        "bench/fig.cpp",
        "#include \"exec/sweep_runner.hpp\"\n"
        "#include \"rsin/system.hpp\"\n"
        "#include \"obs/run_log.hpp\"\n");
    EXPECT_EQ(countRule(findings, "R6"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR7, IncludeCycleIsReportedWithItsChain)
{
    const std::vector<SourceFile> sources{
        {"src/des/cycle_a.hpp", readFixture("cycle_a.hpp")},
        {"src/des/cycle_b.hpp", readFixture("cycle_b.hpp")},
    };
    const auto findings = lintFiles(sources);
    EXPECT_EQ(countRule(findings, "R7"), 1u)
        << rsin::lint::formatFindings(findings);
    for (const Finding &f : findings)
        if (f.rule == "R7") {
            EXPECT_NE(f.message.find("cycle_a.hpp"), std::string::npos)
                << f.message;
            EXPECT_NE(f.message.find("cycle_b.hpp"), std::string::npos)
                << f.message;
        }
}

TEST(LintR7, AcyclicGraphIsClean)
{
    const std::vector<SourceFile> sources{
        {"src/des/a.hpp", "#include \"b.hpp\"\n"},
        {"src/des/b.hpp", "int x;\n"},
    };
    EXPECT_EQ(countRule(lintFiles(sources), "R7"), 0u);
}

// ---------------------------------------------------------------------
// R8: Rng stream forks.
// ---------------------------------------------------------------------

TEST(LintR8, FlagsEveryForkFormAndOnlyThose)
{
    const auto findings =
        lintFixture("bench/bad_r8.cpp", "bad_r8.cpp");
    EXPECT_EQ(countRule(findings, "R8"), 5u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R8", 7));  // by-value param
    EXPECT_TRUE(hasFindingAt(findings, "R8", 8));  // unnamed by-value
    EXPECT_TRUE(hasFindingAt(findings, "R8", 15)); // copy-init
    EXPECT_TRUE(hasFindingAt(findings, "R8", 16)); // copy-ctor
    EXPECT_TRUE(hasFindingAt(findings, "R8", 17)); // by-value capture
}

TEST(LintR8, CommonLayerOwnsRngAndIsExempt)
{
    const auto findings = lintSource(
        "src/common/rng.hpp", "Rng makeChild(Rng parent);\n");
    EXPECT_EQ(countRule(findings, "R8"), 0u)
        << rsin::lint::formatFindings(findings);
}

// ---------------------------------------------------------------------
// Suppressions: SUP and R9.
// ---------------------------------------------------------------------

TEST(LintClean, CleanFixtureHasNoFindings)
{
    const auto findings =
        lintFixture("src/des/clean.cpp", "clean.cpp");
    EXPECT_TRUE(findings.empty())
        << rsin::lint::formatFindings(findings);
}

TEST(LintSuppression, ReasonedSuppressionSilencesFinding)
{
    const auto findings =
        lintFixture("src/rsin/suppressed.cpp", "suppressed.cpp");
    EXPECT_TRUE(findings.empty())
        << rsin::lint::formatFindings(findings);
}

TEST(LintSuppression, ReasonlessOrUnknownSuppressionIsAnError)
{
    const auto findings = lintFixture("src/rsin/bad_suppression.cpp",
                                      "bad_suppression.cpp");
    // Both directives are reported and neither silences its line.
    EXPECT_EQ(countRule(findings, "SUP"), 2u)
        << rsin::lint::formatFindings(findings);
    EXPECT_EQ(countRule(findings, "R2"), 2u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "SUP", 10));
    EXPECT_TRUE(hasFindingAt(findings, "R2", 11));
    EXPECT_TRUE(hasFindingAt(findings, "SUP", 13));
    EXPECT_TRUE(hasFindingAt(findings, "R2", 14));
}

TEST(LintR9, StaleSuppressionIsReported)
{
    const auto findings =
        lintFixture("src/des/bad_r9.cpp", "bad_r9.cpp");
    EXPECT_EQ(countRule(findings, "R9"), 1u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R9", 6));
}

TEST(LintR9, UsedSuppressionIsNotStale)
{
    // suppressed.cpp's directive masks a real R2: no R9 for it.
    const auto findings =
        lintFixture("src/rsin/suppressed.cpp", "suppressed.cpp");
    EXPECT_EQ(countRule(findings, "R9"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintSuppression, BlockCommentsNeverCarryDirectives)
{
    // Documentation may quote the directive syntax inside a block
    // comment without creating (or staling) a suppression.
    const auto findings = lintSource(
        "src/des/doc.cpp",
        "/* Write \"rsin-lint: allow(R2): reason\" to suppress. */\n"
        "int x;\n");
    EXPECT_TRUE(findings.empty())
        << rsin::lint::formatFindings(findings);
}

TEST(LintLexer, CommentsAndStringsDoNotTrip)
{
    const auto findings = lintSource(
        "src/des/lex.cpp",
        "// rand() in a comment\n"
        "/* std::cout << time(nullptr) */\n"
        "const char *s = \"float 1.0f unordered_map printf(\";\n"
        "const char *r = R\"(rand() system_clock)\";\n"
        "char q = 'f';\n");
    EXPECT_TRUE(findings.empty())
        << rsin::lint::formatFindings(findings);
}

TEST(LintFormat, FindingsRenderOnePerLine)
{
    std::vector<Finding> findings{{"a.cpp", 3, "R1", "msg"}};
    EXPECT_EQ(rsin::lint::formatFindings(findings),
              "a.cpp:3: [R1] msg\n");
}

// ---------------------------------------------------------------------
// Output layer: JSON, SARIF, baseline ratchet.
// ---------------------------------------------------------------------

TEST(LintOutput, JsonCarriesEveryField)
{
    std::vector<Finding> findings{
        {"src/a.cpp", 3, "R1", "msg \"quoted\""}};
    const std::string json = rsin::lint::formatJson(findings);
    EXPECT_NE(json.find("\"file\": \"src/a.cpp\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"line\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"rule\": \"R1\""), std::string::npos) << json;
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
}

TEST(LintOutput, SarifHasThe210Structure)
{
    std::vector<Finding> findings{
        {"src/a.cpp", 3, "R6", "layer violation"}};
    const std::string sarif = rsin::lint::formatSarif(findings);
    // Top-level log object.
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"),
              std::string::npos); // $schema
    // runs[0].tool.driver with a populated rule catalog.
    EXPECT_NE(sarif.find("\"runs\""), std::string::npos);
    EXPECT_NE(sarif.find("\"driver\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"rsin-lint\""), std::string::npos);
    for (const rsin::lint::RuleInfo &rule : rsin::lint::ruleCatalog())
        EXPECT_NE(sarif.find(std::string("\"id\": \"") + rule.id +
                             "\""),
                  std::string::npos)
            << rule.id;
    // results[0] location chain down to the line.
    EXPECT_NE(sarif.find("\"ruleId\": \"R6\""), std::string::npos);
    EXPECT_NE(sarif.find("\"physicalLocation\""), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/a.cpp\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
    // Line-only findings still carry an endLine so annotations
    // highlight the whole line rather than a zero-width point.
    EXPECT_NE(sarif.find("\"endLine\": 3"), std::string::npos);

    // A finding with a recorded span gets the full region.
    Finding spanned{"src/b.cpp", 7, "R10", "worker write"};
    spanned.column = 9;
    spanned.endLine = 7;
    spanned.endColumn = 15;
    const std::string sarif2 = rsin::lint::formatSarif({spanned});
    EXPECT_NE(sarif2.find("\"startLine\": 7"), std::string::npos)
        << sarif2;
    EXPECT_NE(sarif2.find("\"startColumn\": 9"), std::string::npos)
        << sarif2;
    EXPECT_NE(sarif2.find("\"endLine\": 7"), std::string::npos)
        << sarif2;
    EXPECT_NE(sarif2.find("\"endColumn\": 15"), std::string::npos)
        << sarif2;
}

TEST(LintBaseline, RoundTripFiltersEverythingItRecorded)
{
    std::vector<Finding> findings{
        {"src/a.cpp", 3, "R6", "m1"},
        {"src/a.cpp", 9, "R6", "m2"},
        {"src/b.cpp", 1, "R8", "m3"},
    };
    const std::string doc = rsin::lint::emitBaseline(findings);
    const rsin::lint::Baseline base = rsin::lint::parseBaseline(doc);
    std::size_t baselined = 0;
    const auto left =
        rsin::lint::applyBaseline(findings, base, &baselined);
    EXPECT_TRUE(left.empty()) << rsin::lint::formatFindings(left);
    EXPECT_EQ(baselined, 3u);
}

TEST(LintBaseline, NewFindingsSurviveTheFilter)
{
    std::vector<Finding> old{{"src/a.cpp", 3, "R6", "m1"}};
    const rsin::lint::Baseline base =
        rsin::lint::parseBaseline(rsin::lint::emitBaseline(old));
    // Same bucket twice: one is grandfathered, the second is new.
    std::vector<Finding> now{{"src/a.cpp", 3, "R6", "m1"},
                             {"src/a.cpp", 40, "R6", "new"},
                             {"src/c.cpp", 2, "R8", "other file"}};
    std::size_t baselined = 0;
    const auto left = rsin::lint::applyBaseline(now, base, &baselined);
    EXPECT_EQ(baselined, 1u);
    ASSERT_EQ(left.size(), 2u) << rsin::lint::formatFindings(left);
    EXPECT_EQ(left[0].file, "src/a.cpp");
    EXPECT_EQ(left[1].file, "src/c.cpp");
}

TEST(LintBaseline, WrongSchemaOrGarbageThrows)
{
    EXPECT_THROW(rsin::lint::parseBaseline("not json"),
                 std::runtime_error);
    EXPECT_THROW(
        rsin::lint::parseBaseline(
            "{\"schema\": \"rsin.other.v9\", \"entries\": []}"),
        std::runtime_error);
}

TEST(LintBaseline, SlackReportsUnconsumedBudget)
{
    // Two grandfathered R6 findings in a.cpp, but only one remains:
    // the ratchet-direction check needs to see slack == 1.
    const rsin::lint::Baseline base = rsin::lint::parseBaseline(
        "{\"schema\": \"rsin.lint_baseline.v1\", \"entries\": ["
        "{\"file\": \"src/a.cpp\", \"rule\": \"R6\", \"count\": 2}]}");
    std::vector<Finding> now{{"src/a.cpp", 3, "R6", "m1"}};
    std::size_t baselined = 0;
    std::size_t slack = 0;
    const auto left =
        rsin::lint::applyBaseline(now, base, &baselined, &slack);
    EXPECT_TRUE(left.empty());
    EXPECT_EQ(baselined, 1u);
    EXPECT_EQ(slack, 1u);
}

// ---------------------------------------------------------------------
// Non-reentrant calls and direct file writes (R11), schema drift (R12).
// ---------------------------------------------------------------------

TEST(LintR11, FlagsNonReentrantCallsAndDirectFileWrites)
{
    const auto findings =
        lintFixture("src/exec/bad_r11.cpp", "bad_r11.cpp");
    EXPECT_EQ(countRule(findings, "R11"), 2u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R11", 21)); // localtime
    EXPECT_TRUE(hasFindingAt(findings, "R11", 22)); // ofstream
}

TEST(LintR11, WriteFileAtomicRoutingIsExempt)
{
    const auto findings =
        lintFixture("src/exec/clean_r11.cpp", "clean_r11.cpp");
    EXPECT_EQ(countRule(findings, "R11"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR11, FiresWhereNoWorkerReaches)
{
    // No pool and no spawn site anywhere: the rule is per-file, so a
    // serial helper is held to it too.
    const auto findings = lintSource(
        "src/obs/stamp.cpp",
        "#include <ctime>\n"
        "#include <fstream>\n"
        "void stamp(std::time_t t)\n"
        "{\n"
        "    std::tm *parts = std::localtime(&t);\n"
        "    std::ofstream out(\"stamp.txt\");\n"
        "    out << parts->tm_year;\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "R11"), 2u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R11", 5)); // localtime
    EXPECT_TRUE(hasFindingAt(findings, "R11", 6)); // ofstream
}

TEST(LintR11, TestsAndTheWriteFileAtomicHomeAreExempt)
{
    const std::string bad = readFixture("bad_r11.cpp");
    for (const char *path : {"tests/bad_r11.cpp", "src/common/fsio.cpp"}) {
        const auto findings = lintSource(path, bad);
        EXPECT_EQ(countRule(findings, "R11"), 0u)
            << path << "\n" << rsin::lint::formatFindings(findings);
    }
}

TEST(LintR12, FlagsFieldDriftWithoutVersionBump)
{
    const rsin::lint::SchemaManifest manifest =
        rsin::lint::parseSchemaManifest(
            "{\"schema\": \"rsin.lint_schemas.v1\", \"entries\": ["
            "{\"tag\": \"rsin.demo.v1\","
            " \"writer\": {\"file\": \"src/obs/bad_r12.cpp\","
            "              \"function\": \"writeDemo\"},"
            " \"parser\": {\"file\": \"src/obs/bad_r12.cpp\","
            "              \"function\": \"parseDemo\"},"
            " \"fields\": [\"alpha\", \"beta\"]}]}");
    rsin::lint::LintOptions options;
    options.schemas = &manifest;
    const auto findings = lintFiles(
        {{"src/obs/bad_r12.cpp", readFixture("bad_r12.cpp")}},
        options);
    EXPECT_EQ(countRule(findings, "R12"), 2u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R12", 20)); // writer: +gamma
    EXPECT_TRUE(hasFindingAt(findings, "R12", 28)); // parser: -beta
}

TEST(LintR12, VersionBumpedSchemaIsExempt)
{
    const rsin::lint::SchemaManifest manifest =
        rsin::lint::parseSchemaManifest(
            "{\"schema\": \"rsin.lint_schemas.v1\", \"entries\": ["
            "{\"tag\": \"rsin.demo.v1\","
            " \"writer\": {\"file\": \"src/obs/clean_r12.cpp\","
            "              \"function\": \"writeDemo\"},"
            " \"parser\": {\"file\": \"src/obs/clean_r12.cpp\","
            "              \"function\": \"writeDemo\"},"
            " \"fields\": [\"alpha\", \"beta\"]}]}");
    rsin::lint::LintOptions options;
    options.schemas = &manifest;
    const auto findings = lintFiles(
        {{"src/obs/clean_r12.cpp", readFixture("clean_r12.cpp")}},
        options);
    EXPECT_EQ(countRule(findings, "R12"), 0u)
        << rsin::lint::formatFindings(findings);
}

TEST(LintR12, WordCountGuardMustMatchManifest)
{
    const rsin::lint::SchemaManifest manifest =
        rsin::lint::parseSchemaManifest(
            "{\"schema\": \"rsin.lint_schemas.v1\", \"entries\": ["
            "{\"tag\": \"rsin.packed.v1\","
            " \"writer\": {\"file\": \"src/obs/packed.cpp\","
            "              \"function\": \"writeLine\"},"
            " \"parser\": {\"file\": \"src/obs/packed.cpp\","
            "              \"function\": \"parseLine\"},"
            " \"fields\": [], \"words\": 5}]}");
    rsin::lint::LintOptions options;
    options.schemas = &manifest;
    const auto findings = lintFiles(
        {{"src/obs/packed.cpp",
          "#include <vector>\n"
          "void writeLine() {}\n"
          "bool parseLine(const std::vector<int> &words)\n"
          "{\n"
          "    return words.size() != 4;\n"
          "}\n"}},
        options);
    EXPECT_EQ(countRule(findings, "R12"), 1u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R12", 5));
}

TEST(LintR12, ManifestRotIsItselfAFinding)
{
    // A manifest naming a function that no longer exists must fail
    // loudly: silently skipping the entry would turn R12 off for
    // exactly the refactor most likely to break the schema.
    const rsin::lint::SchemaManifest manifest =
        rsin::lint::parseSchemaManifest(
            "{\"schema\": \"rsin.lint_schemas.v1\", \"entries\": ["
            "{\"tag\": \"rsin.demo.v1\","
            " \"writer\": {\"file\": \"src/obs/bad_r12.cpp\","
            "              \"function\": \"renamedAway\"},"
            " \"parser\": {\"file\": \"src/obs/bad_r12.cpp\","
            "              \"function\": \"parseDemo\"},"
            " \"fields\": [\"alpha\"]}]}");
    rsin::lint::LintOptions options;
    options.schemas = &manifest;
    const auto findings = lintFiles(
        {{"src/obs/bad_r12.cpp", readFixture("bad_r12.cpp")}},
        options);
    EXPECT_GE(countRule(findings, "R12"), 1u)
        << rsin::lint::formatFindings(findings);
    EXPECT_TRUE(hasFindingAt(findings, "R12", 1)); // manifest rot
}

TEST(LintR12, MalformedManifestThrows)
{
    EXPECT_THROW(rsin::lint::parseSchemaManifest("not json"),
                 std::runtime_error);
    EXPECT_THROW(rsin::lint::parseSchemaManifest(
                     "{\"schema\": \"rsin.other.v1\", "
                     "\"entries\": []}"),
                 std::runtime_error);
    EXPECT_THROW(rsin::lint::parseSchemaManifest(
                     "{\"schema\": \"rsin.lint_schemas.v1\", "
                     "\"entries\": [{\"tag\": \"t.v1\"}]}"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Whole-tree driver.
// ---------------------------------------------------------------------

TEST(LintEngine, TreeRunReportsPhaseTimings)
{
    const std::string root = ::testing::TempDir() + "lint_tree";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root + "/src/common");
    std::ofstream(root + "/src/common/unit.cpp")
        << "namespace rsin {\nnamespace common {\nint\nanswer()\n{\n"
           "    return 42;\n}\n} // namespace common\n"
           "} // namespace rsin\n";
    const auto report = rsin::lint::lintTree(root);
    EXPECT_GT(report.timings.totalMs, 0.0);
    bool sawPerFile = false;
    for (const auto &phase : report.timings.phases)
        sawPerFile = sawPerFile || phase.first == "perfile";
    EXPECT_TRUE(sawPerFile);
    std::filesystem::remove_all(root);
}

} // namespace
