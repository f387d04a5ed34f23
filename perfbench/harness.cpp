/**
 * @file
 * Benchmark harness: the in-process half of perfbench/run.py.  It
 * calls the library's public functions and writes what they returned,
 * with timings, as JSON; run.py makes the inputs, checks the outputs
 * and turns them into metrics.
 *
 *   perfbench_harness sim CELLS OUT SECONDS TRACE
 *       Build every cell's system (the set-up), then run the cells in
 *       whole rounds until SECONDS have passed (at least one round).
 *       CELLS lines: "cell|shardcheck <tab> config <tab> ratio <tab>
 *       rho <tab> tasks <tab> seed".  With TRACE 1 odd rounds record
 *       spans and even rounds do not (at least three rounds, so that
 *       an untraced round besides the first runs on systems built in
 *       the round), so one run also measures the tracing overhead.
 *
 *   perfbench_harness reference CELLS OUT
 *       Independent solver values for the campaign checks.  Lines:
 *       "staged|deep <tab> config <tab> rho <tab> ratio".
 *
 *   perfbench_harness clock
 *   perfbench_harness follow PID OUT
 *       The clock loop (perfbench::clockNs) that run.py scales times
 *       by: once on the current CPU, or every 10 ms on the CPU of
 *       process PID's main thread until that process ends.
 *
 *   perfbench_harness replay CONFIGS [rsin_campaign options]
 *           --ledger DIR --out PATH --trace-out PATH [--cache-from FILE]
 *       Traced in-process replay of one rsin_campaign invocation on a
 *       fresh ledger: the same plan, solves, simulations, appends,
 *       replay and export, with a span around each call.  With
 *       --cache-from it then loads that persisted solver cache and
 *       serves every analytic cell from it.
 */

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "markov/omega_model.hpp"
#include "markov/sbus_solvers.hpp"
#include "markov/xbar_model.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/run_log.hpp"
#include "rsin/analysis.hpp"
#include "rsin/analysis_cache.hpp"
#include "rsin/campaign.hpp"
#include "rsin/factory.hpp"
#include "spans.hpp"

namespace {

using namespace rsin;
using perfbench::clockNs;
using perfbench::cpuNs;
using perfbench::nowNs;
using perfbench::SpanScope;
using perfbench::Trace;

std::vector<std::vector<std::string>>
readTable(const std::string &path)
{
    std::ifstream in(path);
    RSIN_REQUIRE(in.good(), "cannot read ", path);
    std::vector<std::vector<std::string>> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        rows.push_back(split(line, '\t'));
    }
    return rows;
}

double
number(const std::string &text)
{
    const auto v = parseDouble(text);
    RSIN_REQUIRE(v.has_value(), "bad number '", text, "'");
    return *v;
}

// ------------------------------------------------------------- sim ----

struct SimCell
{
    std::string kind; ///< "cell" or "shardcheck"
    SystemConfig config;
    workload::WorkloadParams params;
    SimOptions options;
    double ratio = 0.0;
    double rho = 0.0;
};

SimCell
parseSimCell(const std::vector<std::string> &row)
{
    RSIN_REQUIRE(row.size() == 6, "sim cell: expected 6 fields");
    SimCell cell;
    cell.kind = row[0];
    {
        SpanScope span("rsin.SystemConfig::parse");
        cell.config = SystemConfig::parse(row[1]);
    }
    cell.ratio = number(row[2]);
    cell.rho = number(row[3]);
    cell.params.muN = 1.0;
    cell.params.muS = cell.ratio;
    cell.params.lambda =
        lambdaForRho(cell.config, cell.rho, 1.0, cell.ratio);
    const auto tasks = static_cast<std::uint64_t>(number(row[4]));
    cell.options.seed = static_cast<std::uint64_t>(std::stoull(row[5]));
    cell.options.warmupTasks = tasks / 10;
    cell.options.measureTasks = tasks;
    return cell;
}

/** FNV-1a over the bytes of every field of a result. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    template <class T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
};

/** Digest of a SimResult; @p partitionInvariant leaves out the two
 *  fields a partitioned run reports differently by design (shards
 *  used, and the arena high-water mark summed over shards). */
std::uint64_t
resultHash(const SimResult &r, bool partitionInvariant)
{
    Fnv f;
    f.add(static_cast<int>(r.status));
    f.add(r.saturated);
    for (const double v :
         {r.meanDelay, r.delayHalfWidth, r.normalizedDelay,
          r.meanResponse, r.meanRoutingAttempts, r.meanBoxesTraversed,
          r.delayImbalance, r.timeAvgQueue, r.delayP95, r.delayP99,
          r.fractionNoWait, r.simulatedTime})
        f.add(v);
    f.add(r.completedTasks);
    f.add(r.countedTasks);
    f.add(r.rejections);
    f.add(r.kernel.scheduled);
    f.add(r.kernel.fired);
    f.add(r.kernel.cancelled);
    if (!partitionInvariant) {
        f.add(r.kernel.arenaBytes);
        f.add(r.shardsUsed);
    }
    return f.h;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
writeSolution(obs::JsonWriter &w, const markov::SbusSolution &s)
{
    w.beginObject();
    w.field("stable", s.stable);
    w.field("queueing_delay", s.queueingDelay);
    w.field("normalized_delay", s.normalizedDelay);
    w.field("mean_queue_length", s.meanQueueLength);
    w.field("levels_used", std::uint64_t{s.levelsUsed});
    w.field("truncation_bound", s.truncationBound);
    w.endObject();
}

/** A simulated cell's result as the run-record schema writes it. */
obs::RunRecord
simRecord(const SimCell &cell, const SimResult &res)
{
    obs::RunRecord rec;
    rec.curve = cell.config.str();
    rec.config = rec.curve;
    rec.kind = obs::RecordKind::Run;
    rec.rho = cell.rho;
    rec.lambda = cell.params.lambda;
    rec.muN = cell.params.muN;
    rec.muS = cell.params.muS;
    rec.seed = cell.options.seed;
    rec.replication = 0;
    rec.display = obs::displayValue(res, res.normalizedDelay, "%.5f");
    rec.result = res;
    return rec;
}

/** The SimResult counters a run span carries. */
void
noteCounters(SpanScope &span, const SystemConfig &config,
             const SimResult &res)
{
    span.attr("events_fired", static_cast<double>(res.kernel.fired));
    span.attr("events_scheduled",
              static_cast<double>(res.kernel.scheduled));
    span.attr("arena_bytes", static_cast<double>(res.kernel.arenaBytes));
    span.attr("completed_tasks", static_cast<double>(res.completedTasks));
    span.attr("rejections", static_cast<double>(res.rejections));
    span.attr("boxes_traversed",
              res.meanBoxesTraversed *
                  static_cast<double>(res.countedTasks));
    span.attr("omega", config.network == NetworkClass::Omega ? 1.0 : 0.0);
}

/**
 * Moves the calling thread to the allowed CPU that is quietest right
 * now.  On the benchmark's host something else on the same physical
 * core can slow one vCPU at a time by up to 1.8x, in phases of a
 * fraction of a second to tens of seconds; a throughput-bound loop
 * over half the L2 slows with it (a latency-bound chain does not).
 * Called before each timed cell, outside its timing, so that a cell's
 * fastest round is more likely one that ran on a quiet core.
 */
class QuietCpu
{
  public:
    QuietCpu() : data_(std::size_t{1} << 17) // 1 MB, half the L2
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] = 1.0 + 1e-6 * static_cast<double>(i);
    }

    void
    moveToQuietest()
    {
        if (cpus_.size() < 2)
            return;
        int best = cpus_.front();
        std::int64_t bestNs = std::numeric_limits<std::int64_t>::max();
        for (const int cpu : cpus_) {
            moveTo(cpu);
            loop(); // refills this core's caches after the move
            const std::int64_t t0 = nowNs();
            loop();
            const std::int64_t ns = nowNs() - t0;
            if (ns < bestNs) {
                bestNs = ns;
                best = cpu;
            }
        }
        moveTo(best);
    }

  private:
    static void
    moveTo(int cpu)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof set, &set);
    }

    /** Eight independent multiply-add chains over the buffer. */
    void
    loop()
    {
        double acc[8] = {};
        const std::size_t mask = data_.size() - 1;
        for (std::size_t k = 0; k < data_.size(); k += 8)
            for (std::size_t j = 0; j < 8; ++j)
                acc[j] += data_[k + j] * data_[(k + j * 977) & mask];
        sink_ = acc[0] + acc[1] + acc[2] + acc[3] + acc[4] + acc[5] +
                acc[6] + acc[7];
    }

    std::vector<int> cpus_;
    std::vector<double> data_;
    volatile double sink_ = 0.0;
};

struct CellTiming
{
    std::int64_t wallNs = 0;
    std::int64_t cpuNs = 0;
    std::int64_t clockNs = 0; ///< clock loop, mean of before and after
    std::uint64_t hash = 0;
};

int
simMain(const std::string &cells_path, const std::string &out_path,
        double seconds, bool trace)
{
    // Set-up: parse every cell and build every system the first round
    // runs.  run.py times it from the moment it started this process.
    Trace::global().enable(trace);
    std::vector<SimCell> cells;
    std::vector<SimCell> shardChecks;
    for (const auto &row : readTable(cells_path)) {
        SimCell cell = parseSimCell(row);
        (cell.kind == "shardcheck" ? shardChecks : cells)
            .push_back(std::move(cell));
    }
    RSIN_REQUIRE(!cells.empty(), "sim: no cells");
    std::vector<std::unique_ptr<SystemSimulation>> systems;
    for (const SimCell &cell : cells) {
        SpanScope span("rsin.makeSystem");
        systems.push_back(
            makeSystem(cell.config, cell.params, cell.options));
    }
    const std::int64_t setupDoneNs = nowNs();
    const std::int64_t setupClockNs = clockNs();
    QuietCpu quiet;

    // Timed work: whole rounds of every cell.
    std::vector<std::vector<CellTiming>> rounds;
    std::vector<bool> roundTraced;
    std::vector<SimResult> firstResults;
    const std::int64_t start = nowNs();
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t minRounds = trace ? 3 : 1;
    while (rounds.size() < minRounds || nowNs() - start < budget) {
        const std::size_t r = rounds.size();
        const bool traced = trace && r % 2 == 1;
        Trace::global().enable(traced);
        SpanScope roundSpan("workload.round");
        std::vector<CellTiming> timing(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const SimCell &cell = cells[i];
            quiet.moveToQuietest();
            const std::int64_t clockBefore = clockNs();
            SpanScope cellSpan("workload.cell");
            std::unique_ptr<SystemSimulation> system;
            if (r == 0) {
                system = std::move(systems[i]);
            } else {
                SpanScope span("rsin.makeSystem");
                system = makeSystem(cell.config, cell.params,
                                    cell.options);
            }
            SimResult res;
            {
                SpanScope span("rsin.SystemSimulation::run");
                const std::int64_t c0 = cpuNs();
                const std::int64_t t0 = nowNs();
                res = system->run();
                timing[i].wallNs = nowNs() - t0;
                timing[i].cpuNs = cpuNs() - c0;
                noteCounters(span, cell.config, res);
            }
            timing[i].clockNs = (clockBefore + clockNs()) / 2;
            timing[i].hash = resultHash(res, false);
            if (r == 0)
                firstResults.push_back(res);
            system.reset();
        }
        rounds.push_back(std::move(timing));
        roundTraced.push_back(traced);
    }
    Trace::global().enable(false);

    // Outside the timed part: independent reference values and the
    // serial-vs-partitioned comparison.
    std::ofstream out(out_path);
    {
        obs::JsonWriter w(out, 0);
        w.beginObject();
        w.field("setup_done_ns", std::int64_t{setupDoneNs});
        w.field("setup_clock_ns", std::int64_t{setupClockNs});
        w.key("cells");
        w.beginArray();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const SimCell &cell = cells[i];
            w.beginObject();
            w.field("network", networkClassName(cell.config.network));
            w.field("processors", std::uint64_t{cell.config.processors});
            w.field("ratio", cell.ratio);
            w.field("warmup_tasks", cell.options.warmupTasks);
            w.key("record");
            obs::writeRunRecordJson(w, simRecord(cell, firstResults[i]));
            w.key("reference");
            if (cell.config.network == NetworkClass::SingleBus)
                writeSolution(w, analyzeSbus(cell.config,
                                             cell.params.lambda,
                                             cell.params.muN,
                                             cell.params.muS));
            else if (cell.config.network == NetworkClass::Omega)
                writeSolution(w, multistageLightLoad(
                                     cell.config, cell.params.lambda,
                                     cell.params.muN, cell.params.muS));
            else
                w.null();
            w.endObject();
        }
        w.endArray();
        w.key("rounds");
        w.beginArray();
        for (std::size_t r = 0; r < rounds.size(); ++r) {
            w.beginObject();
            w.field("traced", static_cast<bool>(roundTraced[r]));
            const auto column = [&](const char *name, auto get) {
                w.key(name);
                w.beginArray();
                for (const CellTiming &t : rounds[r])
                    w.value(get(t));
                w.endArray();
            };
            column("wall_ns", [](const CellTiming &t) { return t.wallNs; });
            column("cpu_ns", [](const CellTiming &t) { return t.cpuNs; });
            column("clock_ns",
                   [](const CellTiming &t) { return t.clockNs; });
            column("hash", [](const CellTiming &t) { return hex(t.hash); });
            w.endObject();
        }
        w.endArray();
        w.key("shard_checks");
        w.beginArray();
        for (const SimCell &cell : shardChecks) {
            SimOptions serial = cell.options;
            serial.shards = 1;
            SimOptions sharded = cell.options;
            sharded.shards = 2;
            const SimResult a = simulate(cell.config, cell.params, serial);
            const SimResult b = simulate(cell.config, cell.params, sharded);
            w.beginObject();
            w.field("config", cell.config.str());
            w.field("rho", cell.rho);
            w.field("serial", hex(resultHash(a, true)));
            w.field("sharded", hex(resultHash(b, true)));
            w.field("shards_used", std::uint64_t{b.shardsUsed});
            w.endObject();
        }
        w.endArray();
        w.key("spans");
        Trace::global().writeJson(w);
        w.endObject();
    }
    out << "\n";
    return out.good() ? 0 : 1;
}

// ------------------------------------------------------- reference ----

markov::NetChainParams
chainParams(const SystemConfig &cfg, double lambda, double mu_n,
            double mu_s)
{
    markov::NetChainParams prm;
    prm.processors = cfg.inputsPerNet;
    prm.buses = cfg.outputsPerNet;
    prm.resources = cfg.resourcesPerPort;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    if (cfg.network == NetworkClass::Omega)
        prm.linkConflict = omegaLinkConflict(cfg.inputsPerNet);
    return prm;
}

std::unique_ptr<markov::XbarChainModel>
chainModel(const SystemConfig &cfg, const markov::NetChainParams &prm)
{
    if (cfg.network == NetworkClass::Omega)
        return std::make_unique<markov::OmegaChainModel>(prm);
    return std::make_unique<markov::XbarChainModel>(prm);
}

const char *
backendName(markov::LdQbdBackend b)
{
    switch (b) {
      case markov::LdQbdBackend::DenseCensored: return "dense";
      case markov::LdQbdBackend::SparseKrylov: return "sparse";
      case markov::LdQbdBackend::SparsePower: return "power";
      case markov::LdQbdBackend::Auto: break;
    }
    return "auto";
}

int
referenceMain(const std::string &cells_path, const std::string &out_path)
{
    std::ofstream out(out_path);
    obs::JsonWriter w(out, 0);
    w.beginArray();
    for (const auto &row : readTable(cells_path)) {
        RSIN_REQUIRE(row.size() == 4, "reference: expected 4 fields");
        const SystemConfig cfg = SystemConfig::parse(row[1]);
        const double rho = number(row[2]);
        const double ratio = number(row[3]);
        const double lambda = lambdaForRho(cfg, rho, 1.0, ratio);
        w.beginObject();
        w.field("kind", row[0]);
        w.field("config", cfg.str());
        w.field("rho", rho);
        w.field("ratio", ratio);
        if (row[0] == "staged") {
            // The paper's Eq. (2) stage recursion, independent of the
            // matrix-geometric solver the campaign uses.
            markov::SbusParams prm;
            prm.p = cfg.processorsPerNet();
            prm.lambda = lambda;
            prm.muN = 1.0;
            prm.muS = ratio;
            prm.r = cfg.resourcesPerPort;
            w.key("solution");
            writeSolution(w, markov::solveStaged(markov::SbusChain(prm)));
        } else {
            RSIN_REQUIRE(row[0] == "deep", "reference: bad kind ", row[0]);
            const auto prm = chainParams(cfg, lambda, 1.0, ratio);
            const auto model = chainModel(cfg, prm);
            const markov::LdQbdResult base =
                markov::solveStationary(*model);
            markov::LdQbdOptions deeper;
            deeper.initialLevels = 2 * base.levelsUsed;
            deeper.maxLevels = 2 * base.levelsUsed;
            const markov::LdQbdResult twice =
                markov::solveStationary(*model, deeper);
            w.field("backend", backendName(base.backend));
            w.key("solution");
            writeSolution(w, markov::chainSolution(*model, base));
            w.key("twice_depth");
            writeSolution(w, markov::chainSolution(*model, twice));
        }
        w.endObject();
    }
    w.endArray();
    out << "\n";
    return out.good() ? 0 : 1;
}

// ---------------------------------------------------------- replay ----

std::vector<std::string>
listArg(const ArgParser &args, const std::string &name)
{
    std::vector<std::string> out;
    for (auto &tok : split(args.get(name), ','))
        if (!trim(tok).empty())
            out.push_back(trim(tok));
    return out;
}

/** The subset of rsin_campaign's options the benchmark passes. */
CampaignSpec
replaySpec(const ArgParser &args)
{
    CampaignSpec spec;
    for (const auto &pos : args.positional())
        for (auto &text : split(pos, ';'))
            if (!trim(text).empty())
                spec.configs.push_back(SystemConfig::parse(trim(text)));
    spec.ratios.clear();
    for (const auto &tok : listArg(args, "ratios"))
        spec.ratios.push_back(number(tok));
    spec.rhoMin = args.getDouble("rho-min", 0.1);
    spec.rhoMax = args.getDouble("rho-max", 0.9);
    spec.rhoSteps = static_cast<std::size_t>(args.getLong("steps", 9));
    spec.tasks = static_cast<std::uint64_t>(args.getLong("tasks", 20000));
    spec.replications =
        static_cast<std::size_t>(args.getLong("replications", 1));
    spec.seed = static_cast<std::uint64_t>(args.getLong("seed", 1));
    return spec;
}

/** Base record shared by both cell kinds (as rsin_campaign builds it). */
obs::RunRecord
baseRecord(const CampaignSpec &spec, const CampaignCell &cell)
{
    obs::RunRecord rec;
    rec.curve = cellCurve(spec, cell);
    rec.config = spec.configs[cell.configIndex].str();
    rec.rho = cell.rho;
    rec.lambda = cell.lambda;
    rec.muN = spec.muN;
    rec.muS = spec.muN * cell.ratio;
    return rec;
}

int
replayMain(int argc, char **argv)
{
    const ArgParser args(argc, argv, {},
                         {"ratios", "rho-min", "rho-max", "steps",
                          "tasks", "replications", "seed", "ledger",
                          "jobs", "out", "cache-from", "trace-out"});
    Trace::global().enable(true);
    const std::string ledger = args.get("ledger");
    const std::string out = args.get("out");
    const std::string cacheFrom = args.get("cache-from");
    const std::string traceOut = args.get("trace-out");
    RSIN_REQUIRE(!ledger.empty() && !out.empty() && !traceOut.empty(),
                 "replay: --ledger, --out and --trace-out are required");
    const std::size_t jobs = args.getJobs();

    std::int64_t wallNs = 0;
    std::uint64_t cacheMismatches = 0;
    {
        SpanScope root("campaign.replay");
        const std::int64_t t0 = nowNs();
        CampaignSpec spec;
        std::string canonical;
        std::vector<CampaignCell> cells;
        {
            SpanScope span("rsin.planCampaign");
            spec = replaySpec(args);
            canonical = canonicalSpec(spec);
            cells = planCampaign(spec);
            span.attr("cells", static_cast<double>(cells.size()));
        }
        std::unique_ptr<obs::LedgerWriter> writer;
        {
            SpanScope span("obs.LedgerWriter::open");
            writer =
                std::make_unique<obs::LedgerWriter>(ledger, 0, canonical);
        }
        {
            SpanScope span("obs.replayLedger");
            const obs::LedgerReplay before =
                obs::replayLedger(ledger, canonical);
            span.attr("entries", static_cast<double>(before.entries.size()));
        }
        const auto append = [&](const CampaignCell &cell,
                                const obs::RunRecord &rec) {
            SpanScope span("obs.LedgerWriter::append");
            writer->append(cell.key, rec);
        };

        // Analytic cells on the calling thread, as rsin_campaign
        // solves them before its pool starts.
        std::vector<const CampaignCell *> simCells;
        std::vector<std::pair<const CampaignCell *, markov::SbusSolution>>
            solved;
        {
            SpanScope mainSpan("exec.main_thread_analytic");
            for (const CampaignCell &cell : cells) {
                if (!cell.analytic) {
                    simCells.push_back(&cell);
                    continue;
                }
                const SystemConfig &cfg = spec.configs[cell.configIndex];
                const double muS = spec.muN * cell.ratio;
                markov::SbusSolution sol;
                if (cfg.network == NetworkClass::SingleBus) {
                    SpanScope span("markov.analyzeSbus");
                    sol = analyzeSbus(cfg, cell.lambda, spec.muN, muS);
                } else {
                    const auto prm =
                        chainParams(cfg, cell.lambda, spec.muN, muS);
                    std::unique_ptr<markov::XbarChainModel> model;
                    {
                        SpanScope span("markov.buildChainModel");
                        model = chainModel(cfg, prm);
                    }
                    SpanScope span("markov::solveStationary");
                    const markov::LdQbdResult res =
                        markov::solveStationary(*model);
                    span.attr("phases",
                              static_cast<double>(model->phases()));
                    span.attr("sparse",
                              res.backend ==
                                      markov::LdQbdBackend::DenseCensored
                                  ? 0.0
                                  : 1.0);
                    span.attr("levels",
                              static_cast<double>(res.levelsUsed));
                    span.attr("converged", res.converged ? 1.0 : 0.0);
                    span.attr("truncation_bound", res.truncationBound);
                    sol = markov::chainSolution(*model, res);
                }
                obs::RunRecord rec = baseRecord(spec, cell);
                rec.kind = obs::RecordKind::Analytic;
                rec.replication = -1;
                rec.result.status =
                    sol.stable ? RunStatus::Ok : RunStatus::Saturated;
                rec.result.saturated = !sol.stable;
                rec.result.meanDelay = sol.queueingDelay;
                rec.result.normalizedDelay = sol.normalizedDelay;
                rec.result.timeAvgQueue = sol.meanQueueLength;
                rec.result.fractionNoWait = sol.probNoWait;
                rec.result.shardsUsed = 0;
                rec.display = sol.stable
                                  ? formatf("%.5f", sol.normalizedDelay)
                                  : "inf";
                append(cell, rec);
                solved.emplace_back(&cell, sol);
            }
        }

        // Simulation cells on the worker pool.
        {
            exec::ThreadPool pool(jobs);
            std::vector<exec::SweepCell> sweep;
            for (std::size_t i = 0; i < simCells.size(); ++i) {
                exec::SweepCell sc;
                sc.config = simCells[i]->configIndex;
                sc.point = simCells[i]->rhoIndex;
                sc.replication =
                    static_cast<std::size_t>(simCells[i]->replication);
                sc.flat = i;
                sc.seed = simCells[i]->seed;
                sweep.push_back(sc);
            }
            SpanScope poolSpan("exec.runCells");
            // parallelFor runs cells on the calling thread as well as
            // on the pool's workers.
            poolSpan.attr("threads", static_cast<double>(pool.size() + 1));
            const std::uint64_t parent = poolSpan.id();
            const exec::SweepRunner runner(&pool);
            runner.runCells(sweep, [&](const exec::SweepCell &sc) {
                const CampaignCell &cell = *simCells[sc.flat];
                SpanScope cellSpan("exec.cell", parent);
                SimOptions opts;
                opts.seed = cell.seed;
                opts.warmupTasks = spec.tasks / 10;
                opts.measureTasks = spec.tasks;
                SimResult res;
                double wall = 0.0;
                {
                    SpanScope span("rsin.simulate");
                    const std::int64_t s0 = nowNs();
                    res = simulate(spec.configs[cell.configIndex],
                                   cellWorkload(spec, cell), opts,
                                   cellModel(spec, cell));
                    wall = static_cast<double>(nowNs() - s0) * 1e-9;
                    noteCounters(span, spec.configs[cell.configIndex],
                                 res);
                }
                obs::RunRecord rec = baseRecord(spec, cell);
                rec.kind = obs::RecordKind::Run;
                rec.seed = cell.seed;
                rec.replication = cell.replication;
                rec.display =
                    obs::displayValue(res, res.normalizedDelay, "%.5f");
                rec.wallSeconds = wall;
                rec.result = res;
                append(cell, rec);
            });
        }
        {
            SpanScope span("obs.LedgerWriter::close");
            writer->close();
        }
        {
            SpanScope span("rsin.AnalysisCache::save");
            AnalysisCache::global().save(ledger + "/analysis_cache.txt");
        }
        obs::LedgerReplay merged;
        {
            SpanScope span("obs.replayLedger");
            merged = obs::replayLedger(ledger, canonical);
            span.attr("entries", static_cast<double>(merged.entries.size()));
        }
        {
            SpanScope span("obs.RunLog::writeFile");
            obs::RunLog log;
            log.setBench("rsin_campaign");
            for (const auto &[key, entry] : merged.entries)
                log.add(entry.record);
            log.writeFile(out, obs::Format::Json);
        }
        wallNs = nowNs() - t0;

        // Resume path of the solver memo: load the campaign's persisted
        // cache and serve every analytic cell from it; each answer
        // must equal the direct solve bit for bit.
        if (!cacheFrom.empty()) {
            SpanScope span("rsin.AnalysisCache::resume");
            AnalysisCache::global().load(cacheFrom);
            for (const auto &[cell, direct] : solved) {
                const SystemConfig &cfg = spec.configs[cell->configIndex];
                const double muS = spec.muN * cell->ratio;
                const markov::SbusSolution cached =
                    cfg.network == NetworkClass::SingleBus
                        ? analyzeSbus(cfg, cell->lambda, spec.muN, muS)
                    : xbarExactInRange(cfg)
                        ? xbarExact(cfg, cell->lambda, spec.muN, muS)
                        : omegaExact(cfg, cell->lambda, spec.muN, muS);
                if (std::memcmp(&cached.normalizedDelay,
                                &direct.normalizedDelay,
                                sizeof(double)) != 0 ||
                    cached.levelsUsed != direct.levelsUsed)
                    ++cacheMismatches;
            }
        }
    }
    Trace::global().enable(false);

    const AnalysisCache::Stats stats = AnalysisCache::global().stats();
    std::ofstream os(traceOut);
    {
        obs::JsonWriter w(os, 0);
        w.beginObject();
        w.field("wall_ns", std::int64_t{wallNs});
        w.field("cache_hits", stats.hits);
        w.field("cache_misses", stats.misses);
        w.field("cache_mismatches", cacheMismatches);
        w.key("spans");
        Trace::global().writeJson(w);
        w.endObject();
    }
    os << "\n";
    return os.good() ? 0 : 1;
}

// -------------------------------------------------- clock, follow ----

/** Prints the clock loop's time on the current CPU, in ns. */
int
clockMain()
{
    std::cout << clockNs() << "\n";
    return 0;
}

/**
 * Times the clock loop on the CPU that the main thread of process
 * @p pid last ran on, every 10 ms until that process has ended, and
 * writes one "cpu ns" line per sample to @p out_path.  A sample takes
 * about 50 us of that CPU.
 */
int
followMain(const std::string &pid, const std::string &out_path)
{
    std::ofstream out(out_path);
    const std::string stat = "/proc/" + pid + "/task/" + pid + "/stat";
    for (;;) {
        std::ifstream in(stat);
        std::string text;
        if (!std::getline(in, text))
            break;
        // After the command name (in parentheses) come the state,
        // field 3, and 36 fields later the last CPU, field 39.
        const auto fields = split(trim(text.substr(text.rfind(')') + 1)),
                                  ' ');
        if (fields.size() < 37 || fields[0] == "Z" || fields[0] == "X")
            break;
        const auto cpu = parseDouble(fields[36]);
        if (!cpu)
            break;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<int>(*cpu), &set);
        sched_setaffinity(0, sizeof set, &set);
        out << *cpu << " " << clockNs() << "\n";
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return out.good() ? 0 : 1;
}

int
usage()
{
    std::cerr << "usage: perfbench_harness sim CELLS OUT SECONDS TRACE\n"
                 "       perfbench_harness reference CELLS OUT\n"
                 "       perfbench_harness clock\n"
                 "       perfbench_harness follow PID OUT\n"

                 "       perfbench_harness replay CONFIGS --ledger DIR "
                 "--out PATH --trace-out PATH [campaign options]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            return usage();
        const std::string mode = argv[1];
        if (mode == "sim" && argc == 6)
            return simMain(argv[2], argv[3], number(argv[4]),
                           std::string(argv[5]) == "1");
        if (mode == "reference" && argc == 4)
            return referenceMain(argv[2], argv[3]);
        if (mode == "replay")
            return replayMain(argc - 1, argv + 1);
        if (mode == "clock" && argc == 2)
            return clockMain();
        if (mode == "follow" && argc == 4)
            return followMain(argv[2], argv[3]);

        return usage();
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 1;
    }
}
