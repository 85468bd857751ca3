/**
 * @file
 * End-to-end benchmark of the mdbench engine (README.md in this
 * directory has the metric → layer → workload table and the design).
 *
 *   e2ebench --workload <lj|eam|rhodo|chain_ranked> --seed <n>
 *            --seconds <s> --trace <0|1>
 *
 * One run builds and sets up the workload several times (setup_s),
 * then advances each configuration — 2 threads and 1 thread, plus a
 * traced copy of each with --trace 1 — through the same trajectories
 * in interleaved, rotating blocks until --seconds of measurement have
 * passed. Interleaving puts every configuration under the same host
 * drift, and the identical trajectories let the run check bitwise
 * thread determinism and that the traced step loop is the program's
 * own run(). The last stdout line is the result JSON.
 *
 * Only the engine's public API is used: the traced loop calls
 * Simulation's phase functions in run()'s order and times each call;
 * counts come from public accessors and counterValue().
 */

#include <sys/resource.h>

#include <array>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.h"
#include "core/suite.h"
#include "obs/counters.h"
#include "parallel/ranked_sim.h"
#include "util/stats.h"
#include "util/thread_pool.h"

extern char **environ;

namespace {

using namespace mdbench;
using e2ebench::Checks;
using e2ebench::ratio;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- command line ---------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload "
                 "<lj|eam|rhodo|chain_ranked> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 error.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool seen[4] = {false, false, false, false};
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
            seen[0] = true;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed " + value);
            seen[1] = true;
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0))
                usage("bad --seconds " + value);
            seen[2] = true;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            args.trace = value == "1";
            seen[3] = true;
        } else {
            usage("unknown argument " + key);
        }
    }
    for (bool s : seen)
        if (!s)
            usage("all four arguments are required");
    return args;
}

/** The benchmark measures the default configuration only: any engine
 * knob in the environment would silently change what it measures. */
void
refuseEngineKnobs()
{
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "MDBENCH_", 8) == 0) {
            std::fprintf(stderr,
                         "e2ebench: refusing to run with %s set; the "
                         "benchmark measures the default configuration\n",
                         *env);
            std::exit(2);
        }
    }
}

// -- workloads ------------------------------------------------------------

/** Why each workload is here: README.md. */
struct Workload
{
    const char *name;
    /** Suite builder at the workload's size (the global system for a
     * ranked workload). */
    std::unique_ptr<Simulation> (*build)(const SuiteOptions &);
    int blockSteps;  ///< steps per measured block (same for every config)
    int setupReps;   ///< repeated build+setup() at the headline threads
    /** Independent trajectories per run, each with its own velocity
     * seed (README.md: eam's rebuild cadence depends on the seed). */
    int replicas;
    bool nve;        ///< energy-conserving: drift is checked
    bool ranked;     ///< decomposed over kRanks by RankedSimulation
};

constexpr int kRanks = 8;
constexpr int kThreads = 2;         ///< headline thread count (nproc / 2)
constexpr double kDriftBound = 5e-3; ///< tests/test_precision.cpp's bound

const Workload kWorkloads[] = {
    {"lj", [](const SuiteOptions &o) { return buildLJ(20, o); }, 8, 15, 1,
     true, false},
    {"eam", [](const SuiteOptions &o) { return buildEAM(20, o); }, 4, 15, 6,
     true, false},
    {"rhodo", [](const SuiteOptions &o) { return buildRhodoProxy(14, o); },
     4, 9, 1, false, false},
    {"chain_ranked", [](const SuiteOptions &o) { return buildChain(320, o); },
     8, 15, 1, false, true},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// -- spans ------------------------------------------------------------------

enum SpanName {
    kStep,
    kIntegrateInitial,
    kTrigger,
    kReneighbor,
    kForward,
    kPair,
    kBond,
    kKspace,
    kReverse,
    kIntegrateFinal,
    kNumSpanNames
};

/** In-memory span recorder for the traced step loop. */
class SpanRecorder
{
  public:
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, SpanName name) : rec_(rec)
        {
            id_ = static_cast<int>(rec_.spans_.size());
            e2ebench::Span span;
            span.name = name;
            span.parent = rec_.open_;
            span.start = rec_.now();
            rec_.spans_.push_back(span);
            rec_.open_ = id_;
        }
        ~Scope()
        {
            auto &span = rec_.spans_[static_cast<std::size_t>(id_)];
            span.end = rec_.now();
            rec_.open_ = span.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int id_ = 0;
    };

    void clear() { spans_.clear(); }
    const std::vector<e2ebench::Span> &spans() const { return spans_; }

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    std::vector<e2ebench::Span> spans_;
    int open_ = -1;
    Clock::time_point origin_ = Clock::now();
};

// -- one simulated system ---------------------------------------------------

/** Styles and fixes for one chain rank, taken from a one-chain suite
 * instance so the Table 2 configuration is not restated here. */
void
configureChainRank(Simulation &sim, const SuiteOptions &options)
{
    auto reference = buildChain(1, options);
    sim.pair = std::move(reference->pair);
    sim.bondStyle = std::move(reference->bondStyle);
    sim.angleStyle = std::move(reference->angleStyle);
    sim.fixes = std::move(reference->fixes);
    sim.neighbor.skin = reference->neighbor.skin;
    sim.dt = reference->dt;
    sim.units = reference->units;
}

class Instance
{
  public:
    /** Build and set up @p w at the current thread count, timing the
     * builder and setup() separately. */
    Instance(const Workload &w, std::uint64_t seed)
    {
        SuiteOptions options;
        options.seed = seed;
        auto t0 = Clock::now();
        sim_ = w.build(options);
        if (w.ranked) {
            // The ranked driver installs styles and fixes per rank.
            sim_->pair.reset();
            sim_->bondStyle.reset();
            sim_->angleStyle.reset();
            sim_->kspace.reset();
            sim_->fixes.clear();
            ranked_ = std::make_unique<RankedSimulation>(
                *sim_, kRanks,
                [&](Simulation &rank) { configureChainRank(rank, options); });
        }
        buildSeconds = secondsSince(t0);
        t0 = Clock::now();
        if (ranked_)
            ranked_->setup();
        else
            sim_->setup();
        setupSeconds = secondsSince(t0);
        initialAtoms = atoms();
        initialEnergy = totalEnergy();
    }

    /** One timestep through the program's own run(). */
    void
    step()
    {
        if (ranked_)
            ranked_->run(1);
        else
            sim_->run(1);
    }

    /**
     * One timestep through Simulation's phase functions, in the order
     * Simulation::run() composes them, each call inside its own span.
     * The run checks that this reproduces run() bitwise, so a change to
     * the step composition fails the check instead of being measured as
     * a different program. Force zeroing and thermo output stay in
     * the step span's self time. Ranked phases are private: one span.
     */
    void
    tracedStep(SpanRecorder &rec)
    {
        SpanRecorder::Scope step(rec, kStep);
        if (ranked_) {
            ranked_->run(1);
            return;
        }
        Simulation &sim = *sim_;
        ++sim.step;
        {
            SpanRecorder::Scope s(rec, kIntegrateInitial);
            sim.integrateInitial();
        }
        bool rebuild = false;
        {
            SpanRecorder::Scope s(rec, kTrigger);
            rebuild = sim.needsReneighbor();
        }
        if (rebuild) {
            SpanRecorder::Scope s(rec, kReneighbor);
            sim.reneighbor();
        } else {
            SpanRecorder::Scope s(rec, kForward);
            sim.comm->forwardPositions(sim);
        }
        sim.zeroForceAccumulators();
        // Serial lists are never split into interior/boundary halves,
        // so the boundary pass is the whole pair computation.
        if (sim.pair) {
            SpanRecorder::Scope s(rec, kPair);
            sim.neighbor.ensureFreshPacking(sim);
            sim.pair->compute(sim, sim.neighbor.list());
        }
        if (sim.bondStyle || sim.angleStyle) {
            SpanRecorder::Scope s(rec, kBond);
            if (sim.bondStyle)
                sim.bondStyle->compute(sim);
            if (sim.angleStyle)
                sim.angleStyle->compute(sim);
        }
        if (sim.kspace) {
            SpanRecorder::Scope s(rec, kKspace);
            sim.kspace->compute(sim);
        }
        {
            SpanRecorder::Scope s(rec, kReverse);
            sim.reverseForceComm();
        }
        {
            SpanRecorder::Scope s(rec, kIntegrateFinal);
            sim.integrateFinal();
        }
        sim.maybeSampleThermo();
    }

    std::size_t
    atoms() const
    {
        return ranked_ ? ranked_->totalAtoms() : sim_->atoms.nlocal();
    }

    /** Kinetic + potential energy (summed over ranks in rank order). */
    double
    totalEnergy()
    {
        if (!ranked_)
            return sim_->sampleThermo().total;
        double total = 0.0;
        for (int r = 0; r < ranked_->nranks(); ++r) {
            const Simulation &rank = ranked_->rank(r);
            total += rank.kineticEnergy() + rank.potentialEnergy();
        }
        return total;
    }

    /** Per-task seconds (summed over ranks). */
    TaskTimer
    taskTimer() const
    {
        return ranked_ ? ranked_->aggregateTaskTimer() : sim_->timer;
    }

    const RankedSimulation *ranked() const { return ranked_.get(); }

    double buildSeconds = 0.0;
    double setupSeconds = 0.0;
    std::size_t initialAtoms = 0;
    double initialEnergy = 0.0;

  private:
    std::unique_ptr<Simulation> sim_;
    std::unique_ptr<RankedSimulation> ranked_;
};

// -- measurement ------------------------------------------------------------

using CounterSnapshot = std::array<std::uint64_t, kNumCounters>;

CounterSnapshot
snapshotCounters()
{
    CounterSnapshot snap{};
    for (std::size_t c = 0; c < kNumCounters; ++c)
        snap[c] = counterValue(static_cast<Counter>(c));
    return snap;
}

/** Modeled-MPI state of a ranked instance at one instant. */
struct RankedSnapshot
{
    double virtualTime = 0.0;
    double mpiMeanTotal = 0.0;
    std::size_t commBytes = 0;
    std::vector<double> busy; ///< per rank: clock minus Wait time
};

RankedSnapshot
snapshotRanked(const RankedSimulation &ranked)
{
    RankedSnapshot snap;
    snap.virtualTime = ranked.virtualTime();
    snap.mpiMeanTotal = ranked.mpiStats().meanTotal();
    snap.commBytes = ranked.commBytes();
    for (int r = 0; r < ranked.nranks(); ++r)
        snap.busy.push_back(ranked.clocks()[static_cast<std::size_t>(r)] -
                            ranked.mpiStats().seconds(r, MpiFunction::Wait));
    return snap;
}

/** One measured configuration: the workload's replicas at a thread
 * count, traced or not, with everything recorded over the measured
 * blocks. */
struct Config
{
    int threads = 1;
    bool traced = false;
    std::vector<std::unique_ptr<Instance>> replicas;

    std::vector<double> stepSeconds;
    std::vector<std::uint8_t> stepRebuilt;
    long rebuildSteps = 0; ///< all steps, warm-up included
    CounterSnapshot counters{}; ///< deltas over measured blocks
    SpanRecorder spans;
    TaskTimer tasksAtStart;
    RankedSnapshot rankedAtStart;

    long steps() const { return static_cast<long>(stepSeconds.size()); }

    /** Measured steps over their wall time. Per-block medians were
     * tried and spread more: with a rebuild every few steps, a block's
     * rate depends on how many rebuilds it caught. */
    double rate() const
    {
        double seconds = 0.0;
        for (double s : stepSeconds)
            seconds += s;
        return ratio(static_cast<double>(steps()), seconds);
    }

    /** Advance replica @p r by one block; @p measured blocks are
     * recorded. */
    void
    runBlock(std::size_t r, int nsteps, bool measured)
    {
        Instance &instance = *replicas[r];
        ThreadPool::setThreads(threads);
        const CounterSnapshot before = snapshotCounters();
        // A step rebuilt when it built neighbor lists; ranked runs
        // build per rank without Simulation::reneighbor(), so the
        // process-wide counter is the one signal both paths share.
        std::uint64_t builds = counterValue(Counter::NeighBuilds);
        for (int s = 0; s < nsteps; ++s) {
            const auto ts = Clock::now();
            if (traced)
                instance.tracedStep(spans);
            else
                instance.step();
            const double dt = secondsSince(ts);
            const std::uint64_t now = counterValue(Counter::NeighBuilds);
            rebuildSteps += now != builds;
            if (measured) {
                stepSeconds.push_back(dt);
                stepRebuilt.push_back(now != builds);
            }
            builds = now;
        }
        if (measured)
            e2ebench::accumulateDeltas(counters, before, snapshotCounters());
    }

    /** Start measuring: forget the warm-up's spans and take the
     * baselines that accumulating state is read against. */
    void
    markStart()
    {
        spans.clear();
        tasksAtStart = taskTimer();
        if (const RankedSimulation *r = ranked())
            rankedAtStart = snapshotRanked(*r);
    }

    /** Per-task seconds summed over replicas (and ranks). */
    TaskTimer
    taskTimer() const
    {
        TaskTimer total;
        for (const auto &replica : replicas)
            total.merge(replica->taskTimer());
        return total;
    }

    /** The ranked driver, for a ranked workload (one replica). */
    const RankedSimulation *ranked() const { return replicas[0]->ranked(); }

    std::uint64_t
    delta(Counter c) const
    {
        return counters[static_cast<std::size_t>(c)];
    }
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // kB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer metrics of one thread count (names get @p suffix). */
void
layerMetrics(const Config &traced, const Config &untraced,
             const std::vector<double> &buildSeconds,
             const std::vector<double> &setupSeconds,
             std::size_t atoms, const std::string &suffix,
             std::vector<Metric> &out)
{
    const double steps = static_cast<double>(traced.steps());
    const std::vector<double> self =
        e2ebench::selfTimeByName(traced.spans.spans(), kNumSpanNames);
    auto msPerStep = [&](SpanName n) {
        return ratio(self[n] * 1e-6, steps);
    };
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        out.push_back({name + suffix, value, unit});
    };
    const e2ebench::StepSplit split =
        e2ebench::splitSteps(traced.stepSeconds, traced.stepRebuilt);
    const double rebuilds = static_cast<double>(split.rebuildSteps);

    add("integrate.ms_per_step",
        msPerStep(kIntegrateInitial) + msPerStep(kIntegrateFinal), "ms");
    // One reneighbor() call per rebuild step.
    add("neigh.rebuild_ms", ratio(self[kReneighbor] * 1e-6, rebuilds), "ms");
    add("neigh.trigger_ms_per_step", msPerStep(kTrigger), "ms");
    add("neigh.rebuilds_per_kstep", ratio(1000.0 * rebuilds, steps),
        "count");
    add("neigh.pairs_per_atom",
        ratio(static_cast<double>(traced.delta(Counter::NeighPairs)),
              static_cast<double>(atoms) * rebuilds),
        "count");
    add("neigh.accept_ratio",
        ratio(static_cast<double>(traced.delta(Counter::NeighBuildAccepted)),
              static_cast<double>(
                  traced.delta(Counter::NeighBuildCandidates))),
        "ratio");
    add("comm.forward_ms_per_step", msPerStep(kForward), "ms");
    add("comm.reverse_ms_per_step", msPerStep(kReverse), "ms");
    add("pair.ms_per_step", msPerStep(kPair), "ms");
    add("pair.ns_per_pair",
        ratio(self[kPair],
              static_cast<double>(traced.delta(Counter::PairInteractions))),
        "ns");
    const double active =
        static_cast<double>(traced.delta(Counter::PairSimdLanesActive));
    const double waste =
        static_cast<double>(traced.delta(Counter::PairSimdPaddingWaste));
    add("pair.simd_lane_util", ratio(active, active + waste), "ratio");
    add("bond.ms_per_step", msPerStep(kBond), "ms");
    add("kspace.ms_per_step", msPerStep(kKspace), "ms");
    add("kspace.ffts_per_step",
        ratio(static_cast<double>(traced.delta(Counter::KspaceFfts)), steps),
        "count");
    add("pool.regions_per_step",
        ratio(static_cast<double>(traced.delta(Counter::PoolRegions)), steps),
        "count");
    add("step.plain_ms_p50", split.plainP50 * 1e3, "ms");
    add("step.rebuild_ms_p50", split.rebuildP50 * 1e3, "ms");
    add("trace.overhead", ratio(traced.rate(), untraced.rate()), "ratio");
    add("setup.build_s", e2ebench::median(buildSeconds), "s");
    add("setup.first_forces_s", e2ebench::median(setupSeconds), "s");

    // Table 1 tasks from the untraced instance's own TaskTimer (summed
    // over ranks), which the traced loop bypasses for force styles.
    const TaskTimer tasks = untraced.taskTimer();
    for (std::size_t t = 0; t < kNumTasks; ++t) {
        const Task task = static_cast<Task>(t);
        std::string name = taskName(task);
        for (char &c : name)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        add("task." + name + "_ms_per_step",
            ratio((tasks.seconds(task) - untraced.tasksAtStart.seconds(task)) *
                      1e3,
                  static_cast<double>(untraced.steps())),
            "ms");
    }

    // Modeled MPI of the ranked workload (0 for serial workloads).
    double bytes = 0.0, messages = 0.0, mpiPct = 0.0, imbalance = 0.0,
           virtualRate = 0.0;
    if (const RankedSimulation *ranked = traced.ranked()) {
        const RankedSnapshot now = snapshotRanked(*ranked);
        const RankedSnapshot &then = traced.rankedAtStart;
        const double vt = now.virtualTime - then.virtualTime;
        bytes = ratio(static_cast<double>(now.commBytes - then.commBytes),
                      steps);
        messages =
            ratio(static_cast<double>(traced.delta(Counter::MpiMessages)),
                  steps);
        mpiPct = ratio(100.0 * (now.mpiMeanTotal - then.mpiMeanTotal), vt);
        std::vector<double> busy;
        for (std::size_t r = 0; r < now.busy.size(); ++r)
            busy.push_back(now.busy[r] - then.busy[r]);
        imbalance = Imbalance::fromSamples(busy).imbalancePercent();
        virtualRate = ratio(steps, vt);
    }
    add("comm.bytes_per_step", bytes, "B");
    add("mpi.messages_per_step", messages, "count");
    add("mpi.time_pct", mpiPct, "%");
    add("mpi.imbalance_pct", imbalance, "%");
    add("rank.virtual_ts_per_s", virtualRate, "1/s");
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    for (const std::string &f : checks.failures())
        std::printf("FAILED check: %s\n", f.c_str());
    for (const Metric &m : metrics)
        std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                checks.correct() ? "true" : "false", checks.attempted(),
                checks.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    refuseEngineKnobs();
    const Workload *workload = findWorkload(args.workload);
    if (workload == nullptr)
        usage("unknown workload " + args.workload);

    // Configurations: 2 threads first, then 1; traced copies with
    // --trace 1. All follow one trajectory (same seed and steps).
    std::vector<Config> configs;
    for (int threads : {kThreads, 1}) {
        configs.emplace_back();
        configs.back().threads = threads;
        if (args.trace) {
            configs.emplace_back();
            configs.back().threads = threads;
            configs.back().traced = true;
        }
    }

    // Replica k of a run is seeded seed * replicas + k, so a
    // single-replica workload gets --seed itself.
    const int replicas = workload->replicas;
    auto replicaSeed = [&](int k) {
        return args.seed * static_cast<std::uint64_t>(replicas) +
               static_cast<std::uint64_t>(k);
    };

    // Set up repeatedly per thread count; the last setups are kept, one
    // per replica of every configuration at that thread count.
    std::map<int, std::vector<double>> buildSeconds, setupSeconds,
        totalSetup;
    for (int threads : {kThreads, 1}) {
        ThreadPool::setThreads(threads);
        std::vector<Config *> keep;
        for (Config &c : configs)
            if (c.threads == threads)
                keep.push_back(&c);
        const int needed = static_cast<int>(keep.size()) * replicas;
        // setup_s is measured at the headline thread count; 1-thread
        // setups repeat only for the traced metrics.
        const int wanted =
            threads == kThreads || args.trace ? workload->setupReps : 1;
        const int reps = std::max(wanted, needed);
        for (int rep = 0; rep < reps; ++rep) {
            const int slot = rep - (reps - needed);
            const int replica = (slot % replicas + replicas) % replicas;
            auto instance =
                std::make_unique<Instance>(*workload, replicaSeed(replica));
            buildSeconds[threads].push_back(instance->buildSeconds);
            setupSeconds[threads].push_back(instance->setupSeconds);
            totalSetup[threads].push_back(instance->buildSeconds +
                                          instance->setupSeconds);
            if (slot >= 0)
                keep[static_cast<std::size_t>(slot / replicas)]
                    ->replicas.push_back(std::move(instance));
        }
    }

    // One warm-up block per replica, then rounds until time is up.
    // Round n advances replica n mod replicas in every configuration,
    // starting with a different configuration each round.
    for (Config &c : configs) {
        for (std::size_t r = 0; r < c.replicas.size(); ++r)
            c.runBlock(r, workload->blockSteps, false);
        c.markStart();
    }
    const auto start = Clock::now();
    for (std::size_t round = 0; secondsSince(start) < args.seconds;
         ++round) {
        for (std::size_t i = 0; i < configs.size(); ++i)
            configs[(round + i) % configs.size()].runBlock(
                round % static_cast<std::size_t>(replicas),
                workload->blockSteps, true);
    }

    // Correctness: every configuration ran each replica through the
    // same steps from the same state, so all must agree bitwise.
    Checks checks;
    Config &reference = configs.front();
    for (Config &c : configs) {
        for (std::size_t r = 0; r < c.replicas.size(); ++r) {
            const std::string tag =
                std::string(c.traced ? "traced " : "") +
                std::to_string(c.threads) + "-thread replica " +
                std::to_string(r);
            Instance &inst = *c.replicas[r];
            const double energy = inst.totalEnergy();
            checks.expectFinite(inst.initialEnergy, tag + " initial energy");
            checks.expectFinite(energy, tag + " final energy");
            checks.expect(inst.atoms() == inst.initialAtoms,
                          tag + " conserves the atom count");
            if (workload->nve)
                checks.expectDriftBelow(inst.initialEnergy, energy,
                                        kDriftBound, tag + " NVE energy");
            if (&c != &reference)
                checks.expect(
                    e2ebench::sameBits(energy,
                                       reference.replicas[r]->totalEnergy()),
                    tag + " final energy bitwise equal to the " +
                        std::to_string(kThreads) + "-thread run's");
        }
        if (&c != &reference)
            checks.expect(c.rebuildSteps == reference.rebuildSteps,
                          std::string(c.traced ? "traced " : "") +
                              std::to_string(c.threads) +
                              "-thread rebuild count equal to the " +
                              std::to_string(kThreads) + "-thread run's");
    }

    auto find = [&](int threads, bool traced) -> const Config & {
        for (const Config &c : configs)
            if (c.threads == threads && c.traced == traced)
                return c;
        std::abort();
    };
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics.push_back({"ts_per_s", find(kThreads, false).rate(), "1/s"});
        metrics.push_back({"ts_per_s_1t", find(1, false).rate(), "1/s"});
        metrics.push_back(
            {"setup_s", e2ebench::median(totalSetup[kThreads]), "s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    } else {
        const std::size_t atoms = reference.replicas[0]->initialAtoms;
        layerMetrics(find(kThreads, true), find(kThreads, false),
                     buildSeconds[kThreads], setupSeconds[kThreads], atoms,
                     "", metrics);
        layerMetrics(find(1, true), find(1, false), buildSeconds[1],
                     setupSeconds[1], atoms, "_1t", metrics);
        metrics.push_back({"threads.speedup",
                           ratio(find(kThreads, false).rate(),
                                 find(1, false).rate()),
                           "ratio"});
    }
    printResult(checks, metrics);
    return 0;
}
