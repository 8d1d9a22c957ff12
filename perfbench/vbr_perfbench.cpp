/**
 * @file
 * Host-performance benchmark of the vbr simulator: end-to-end kIPS and
 * job latency of three workloads, and a separate traced pass that
 * times each layer from outside, around the public calls runSimJob
 * itself makes. See NOTES.md for the protocol and the metric
 * definitions; run.py builds this program and runs it.
 *
 *   vbr_perfbench --workload uni_fig5|mp16|trace_replay --seed N
 *                 --seconds S --trace 0|1 --work-dir DIR
 *                 [--scale X] [--pins FILE] [--write-pins FILE]
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics. Every simulation input is set here explicitly, so
 * no VBR_* variable in the caller's environment changes what is
 * measured; those that were set are listed in the [context] line.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/constraint_graph.hpp"
#include "common/atomic_file.hpp"
#include "harness.hpp"
#include "isa/functional_core.hpp"
#include "mem/memory_image.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_replay.hpp"
#include "trace/trace_writer.hpp"

using namespace vbr;
using namespace vbr::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** The seed whose per-job result digests are pinned in pins.txt. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Sweep workers of the closed loop (clamped to the CPU count). */
constexpr unsigned kWorkers = 2;

/** A timed run repeats its set-up at least kMinSetupReps times and
 * until kMinSetupMs have been spent (at most kMaxSetupReps times);
 * setup_s is the median. A sub-millisecond set-up needs many
 * repetitions before its median stops moving. */
constexpr unsigned kMinSetupReps = 3;
constexpr unsigned kMaxSetupReps = 1000;
constexpr double kMinSetupMs = 500.0;

/** Latency samples a timed run collects at least, so that p90 has
 * ten samples beyond it. */
constexpr std::size_t kMinLatencySamples = 100;

/** Variables that feed SystemConfig / JobList / sweep defaults. They
 * are recorded, then removed before any config object is built. */
const char *const kIsolatedEnv[] = {
    "VBR_FAULTS",           "VBR_TRACE_DIR",     "VBR_FASTFWD",
    "VBR_FASTFWD_PERCORE",  "VBR_MP_THREADS",    "VBR_CACHE_DIR",
    "VBR_SHARD",            "VBR_THREADS",       "VBR_JOB_TIMEOUT_MS",
    "VBR_RETRY_BACKOFF_MS", "VBR_FAIL_DIR",      "VBR_CACHE_FINGERPRINT",
    "VBR_SCALE",            "VBR_MP_CORES",      "VBR_BENCH_DIR",
};

struct WorkloadDef
{
    const char *name;
    double scale; ///< VBR_SCALE-equivalent iteration multiplier
};

// Sizes: long enough that per-job set-up stays a small share on
// uni_fig5, short enough that a timed run holds several passes.
const WorkloadDef kWorkloads[] = {
    {"uni_fig5", 0.05},
    {"mp16", 0.1},
    {"trace_replay", 0.03},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0; ///< 0 = the workload's default
    std::string workDir;
    std::string pins;
    std::string writePins;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "vbr_perfbench: %s\nusage: vbr_perfbench --workload "
                 "uni_fig5|mp16|trace_replay --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--scale X] [--pins FILE] "
                 "[--write-pins FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--scale")
                o.scale = std::stod(v);
            else if (a == "--work-dir")
                o.workDir = v;
            else if (a == "--pins")
                o.pins = v;
            else if (a == "--write-pins")
                o.writePins = v;
            else
                usage("unknown option " + a);
        } catch (const std::exception &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workDir.empty())
        usage("--work-dir is required");
    if (o.seconds <= 0.0 || o.scale < 0.0)
        usage("--seconds must be > 0 and --scale >= 0");
    return o;
}

/** Continued fraction of the regularized incomplete beta function
 * (modified Lentz), valid for x < (a + 1) / (a + b + 2). */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr double kTiny = 1e-300;
    double c = 1.0;
    double d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
    double h = d;
    for (int m = 1; m <= 10000; ++m) {
        for (int half = 0; half < 2; ++half) {
            double num =
                half == 0
                    ? m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
                    : -(a + m) * (a + b + m) * x /
                          ((a + 2 * m) * (a + 2 * m + 1));
            d = 1.0 + num * d;
            d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
            c = 1.0 + num / c;
            c = std::fabs(c) < kTiny ? kTiny : c;
            h *= d * c;
            if (half == 1 && std::fabs(d * c - 1.0) < 1e-15)
                return h;
        }
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
double
incompleteBeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b) + a * std::log(x) +
                            b * std::log1p(-x));
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

/**
 * Harrell-Davis estimate of the @p q quantile: a beta-weighted mean of
 * all order statistics. Job latencies cluster by job, with gaps
 * between the clusters; a plain order statistic jumps across a gap
 * when a single sample is an outlier, this estimate moves by a
 * fraction of it.
 */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double n = static_cast<double>(xs.size());
    const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
    double sum = 0.0, prev = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double cdf =
            incompleteBeta(a, b, static_cast<double>(i + 1) / n);
        sum += (cdf - prev) * xs[i];
        prev = cdf;
    }
    return sum;
}

/** CPU time of the calling thread, in ms. */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
resultDigest(const SimJobResult &r)
{
    std::string bytes = canonicalResultBytes(r);
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                   bytes.size());
}

// --- workloads ------------------------------------------------------

/** Every setting the benchmark depends on, set explicitly. */
void
isolate(SimJobSpec &spec)
{
    spec.system.faults = FaultConfig{};
    spec.system.traceDir.clear();
    spec.system.fastForward = true;
    spec.system.perCoreFastForward = true;
    spec.system.mpThreads = 1;
    spec.system.audit = kDefaultAuditLevel;
    spec.system.failArtifactDir.clear();
}

/** Fold the benchmark seed into a generator seed; the default seed
 * leaves the suite's own seeds (and so its pinned digests) as is. */
std::uint64_t
foldSeed(std::uint64_t base, std::uint64_t seed)
{
    return base + (seed - kDefaultSeed) * 0x9E3779B97F4A7C15ULL;
}

std::vector<MachineConfig>
fig5Machines()
{
    std::vector<MachineConfig> m{baselineConfig()};
    for (const MachineConfig &c : replayConfigs())
        m.push_back(c);
    return m;
}

/** The full-simulation job grid of a workload (for trace_replay, the
 * capture grid its set-up simulates). */
std::vector<SimJobSpec>
fullSpecs(const std::string &workload, double scale, std::uint64_t seed,
          const std::string &traceDir)
{
    std::vector<MachineConfig> machines = fig5Machines();
    JobList jobs;
    if (workload == "mp16") {
        constexpr unsigned kCores = 16;
        std::vector<MpWorkloadSpec> suite =
            multiprocessorSuite(kCores, scale);
        MpParams p;
        p.threads = kCores;
        p.iterations = std::max(1u, static_cast<unsigned>(40 * scale));
        p.seed = seed;
        suite.push_back({"busy_neighbor", makeBusyNeighbor(p), kCores});
        const MachineConfig &snoop = machines.back();
        VBR_ASSERT(snoop.name == "no-recent-snoop",
                   "unexpected replay configuration order");
        for (const MpWorkloadSpec &wl : suite) {
            std::size_t a = jobs.mp(wl, machines.front());
            std::size_t b = jobs.mp(wl, snoop);
            if (wl.name == "busy_neighbor") {
                // As bench/mp16_gigaplane: every loader iteration pays
                // the full memory round trip.
                jobs.spec(a).system.hierarchy.prefetcher.enabled = false;
                jobs.spec(b).system.hierarchy.prefetcher.enabled = false;
            }
        }
    } else {
        for (WorkloadSpec wl : uniprocessorSuite(scale)) {
            wl.params.seed = foldSeed(wl.params.seed, seed);
            for (const MachineConfig &m : machines)
                jobs.uni(wl, m);
        }
        if (workload == "trace_replay")
            for (const MpWorkloadSpec &wl : multiprocessorSuite(4, scale))
                for (const MachineConfig &m : machines)
                    jobs.mp(wl, m);
    }
    std::vector<SimJobSpec> specs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SimJobSpec spec = jobs.spec(i);
        isolate(spec);
        if (workload == "trace_replay") {
            spec.system.trackVersions = true;
            spec.system.traceDir = traceDir;
            spec.attachScChecker = true;
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** The in-order reference outcome of a uniprocessor program. */
struct FunctionalRef
{
    std::array<Word, kNumArchRegs> regs{};
    std::uint64_t instructions = 0;
    std::uint64_t memDigest = 0;
};

FunctionalRef
functionalRef(const Program &prog)
{
    MemoryImage mem(prog.memorySize());
    mem.applyInits(prog);
    FunctionalCore fc(prog, mem, 0);
    if (!fc.run(200'000'000))
        fatal("functional reference did not halt");
    FunctionalRef ref;
    ref.regs = fc.regs();
    ref.instructions = fc.instructionsExecuted();
    ref.memDigest = memoryImageDigest(mem);
    return ref;
}

/** The ordering verdict trace replay must reproduce from a capture
 * (the projection bench/trace_replay gates on). */
struct Verdict
{
    std::uint64_t committedLoads = 0, replaysUnresolved = 0,
                  replaysConsistency = 0, replaysFiltered = 0,
                  squashLqRaw = 0, squashLqRawUnnec = 0,
                  squashLqSnoop = 0, squashLqSnoopUnnec = 0,
                  squashReplay = 0, instructions = 0, cycles = 0,
                  checkerConsistent = 0, checkerErrors = 0,
                  memDigest = 0;

    bool operator==(const Verdict &) const = default;
};

Verdict
verdictOf(const RunStats &s, std::uint64_t consistent,
          std::uint64_t errors, std::uint64_t mem_digest)
{
    Verdict v;
    v.committedLoads = s.committedLoads;
    v.replaysUnresolved = s.replaysUnresolved;
    v.replaysConsistency = s.replaysConsistency;
    v.replaysFiltered = s.replaysFiltered;
    v.squashLqRaw = s.squashLqRaw;
    v.squashLqRawUnnec = s.squashLqRawUnnec;
    v.squashLqSnoop = s.squashLqSnoop;
    v.squashLqSnoopUnnec = s.squashLqSnoopUnnec;
    v.squashReplay = s.squashReplay;
    v.instructions = s.instructions;
    v.cycles = s.cycles;
    v.checkerConsistent = consistent;
    v.checkerErrors = errors;
    v.memDigest = mem_digest;
    return v;
}

Verdict
verdictOf(const SimJobResult &r, std::uint64_t mem_digest)
{
    return verdictOf(r.stats, extraStat(r, "checker:consistent"),
                     extraStat(r, "checker:errors"), mem_digest);
}

Verdict
verdictOf(const TraceReplayResult &r)
{
    RunStats s;
    s.committedLoads = r.committedLoads;
    s.replaysUnresolved = r.replaysUnresolved;
    s.replaysConsistency = r.replaysConsistency;
    s.replaysFiltered = r.replaysFiltered;
    s.squashLqRaw = r.squashLqRaw;
    s.squashLqRawUnnec = r.squashLqRawUnnec;
    s.squashLqSnoop = r.squashLqSnoop;
    s.squashLqSnoopUnnec = r.squashLqSnoopUnnec;
    s.squashReplay = r.squashReplay;
    s.instructions = r.trailer.instructions;
    s.cycles = r.trailer.cycles;
    return verdictOf(s, r.checker.consistent ? 1 : 0,
                     r.checker.errors.size(), r.finalMemDigest);
}

/** A replay-tier spec for a finished capture, as bench/trace_replay
 * builds it. */
SimJobSpec
replaySpecOf(const SimJobSpec &capture, std::uint64_t file_digest)
{
    SimJobSpec spec = capture;
    spec.mode = SimJobMode::TraceReplay;
    spec.tracePath = traceFilePath(capture);
    spec.traceDigest = file_digest;
    spec.system.traceDir.clear();
    spec.system.jobName += "-replay";
    return spec;
}

// --- per-layer ledger -------------------------------------------------

/** Layer times (ms, summed over jobs) and counts of one traced pass. */
struct Ledger
{
    double buildMs = 0.0;
    double jobMs = 0.0;    ///< untraced runSimJob calls, serial
    double tracedMs = 0.0; ///< the traced replicas of those calls
    double sysSetupMs = 0.0, sysRunMs = 0.0;
    double auditOnMs = 0.0, auditOffMs = 0.0;
    std::uint64_t checks = 0, ticked = 0, skipped = 0;
    double scMs = 0.0;
    std::uint64_t edges = 0;
    double readMs = 0.0, fileDigestMs = 0.0, imageDigestMs = 0.0,
           replayMs = 0.0, finalizeMs = 0.0;
    std::uint64_t traceBytes = 0, traceInstructions = 0;
    double sweepUtil = 0.0;

    // Simulated counts of the full-simulation jobs.
    std::uint64_t instructions = 0, cycles = 0, squashes = 0,
                  replays = 0, filtered = 0, lqSearches = 0, l1d = 0,
                  invalidations = 0;
    double robCycles = 0.0; ///< sum of occupancy x cycles

    void
    addStats(const RunStats &s, std::uint64_t fabric_invalidations)
    {
        instructions += s.instructions;
        cycles += s.cycles;
        squashes += s.squashLqRaw + s.squashLqSnoop + s.squashReplay;
        replays += s.replaysUnresolved + s.replaysConsistency;
        filtered += s.replaysFiltered;
        lqSearches += s.lqSearches;
        l1d += s.l1dTotal();
        invalidations += fabric_invalidations;
        robCycles += s.robOccupancy * static_cast<double>(s.cycles);
        ticked += s.tickedCycles;
        skipped += s.skippedCycles;
    }
};

/** Outcome of one traced full-simulation replica. */
struct FullReplica
{
    SimJobResult result;
    std::string error;
    std::uint64_t memDigest = 0; ///< final image (capture replicas)
    std::uint64_t fileDigest = 0;
    double ms = 0.0; ///< the replica's own calls, end to end
};

/**
 * runSimJob's Full-mode call sequence with a clock around each public
 * call: System construction, run, (capture: image digest, finalize,
 * checker), collectRunStats. A uniprocessor job is then checked
 * against @p ref, outside the timed calls.
 */
FullReplica
tracedFull(const SimJobSpec &spec, Ledger &ledger,
           const FunctionalRef *ref)
{
    FullReplica out;
    auto t_all = Clock::now();
    auto t = Clock::now();
    System sys(spec.system, *spec.program);
    ledger.sysSetupMs += msSince(t);

    std::unique_ptr<ScChecker> checker;
    if (spec.attachScChecker) {
        checker = std::make_unique<ScChecker>();
        sys.setObserver(checker.get());
    }
    std::unique_ptr<TraceWriter> tracer;
    if (!spec.system.traceDir.empty()) {
        TraceHeader th;
        th.cores = spec.system.cores;
        th.memorySize = spec.program->memorySize();
        th.versionsTracked = spec.system.trackVersions;
        th.producerScheme = static_cast<unsigned>(spec.system.core.scheme);
        th.programDigest = programDigest(*spec.program);
        th.label = spec.system.jobName;
        std::error_code ec;
        std::filesystem::create_directories(spec.system.traceDir, ec);
        tracer = std::make_unique<TraceWriter>(traceFilePath(spec), th);
        sys.setTraceCapture(tracer.get(), tracer.get());
    }

    t = Clock::now();
    RunResult r = sys.run();
    double run_ms = msSince(t);
    ledger.sysRunMs += run_ms;
    ledger.auditOnMs += run_ms;
    if (r.deadlocked || !r.allHalted || r.hostCancelled) {
        out.error = spec.system.jobName + ": deadlocked or did not halt";
        return out;
    }
    if (r.auditViolations != 0) {
        out.error = spec.system.jobName + ": audit violations";
        return out;
    }
    if (const InvariantAuditor *aud = sys.auditor())
        ledger.checks += aud->checksPerformed();

    if (tracer) {
        t = Clock::now();
        out.memDigest = memoryImageDigest(sys.memory());
        ledger.imageDigestMs += msSince(t);
        t = Clock::now();
        bool ok = tracer->finalize(r.cycles, r.instructions, out.memDigest);
        ledger.finalizeMs += msSince(t);
        if (!ok) {
            out.error = "cannot write trace " + tracer->path();
            return out;
        }
        out.fileDigest = tracer->digest();
    }
    out.result.stats =
        collectRunStats(sys, r, spec.workload, spec.config);
    if (checker) {
        t = Clock::now();
        CheckResult cr = checker->check();
        ledger.scMs += msSince(t);
        ledger.edges += cr.edges;
        out.result.extras.emplace_back("checker:consistent",
                                       cr.consistent ? 1 : 0);
        out.result.extras.emplace_back("checker:errors",
                                       cr.errors.size());
    }
    out.ms = msSince(t_all);
    ledger.addStats(out.result.stats,
                    sys.fabric().stats().get("invalidations_sent"));

    // Outside the timed region: the uniprocessor reference check.
    if (ref != nullptr) {
        bool regs_ok = true;
        for (unsigned i = 0; i < kNumArchRegs; ++i)
            regs_ok = regs_ok && sys.core(0).archReg(i) == ref->regs[i];
        std::uint64_t mem = tracer ? out.memDigest
                                   : memoryImageDigest(sys.memory());
        if (!regs_ok || mem != ref->memDigest ||
            sys.core(0).instructionsCommitted() != ref->instructions)
            out.error = spec.system.jobName +
                        ": final registers or memory differ from the "
                        "functional reference";
    }
    return out;
}

/** Run time of @p spec's System with the auditor switched off. */
double
auditOffRunMs(const SimJobSpec &spec, RunStats &stats)
{
    SystemConfig cfg = spec.system;
    cfg.audit = AuditLevel::Off;
    System sys(cfg, *spec.program);
    auto t = Clock::now();
    RunResult r = sys.run();
    double ms = msSince(t);
    stats = collectRunStats(sys, r, spec.workload, spec.config);
    return ms;
}

/** runSimJob's TraceReplay call sequence, timed per call, plus the
 * trace_replay harness's traceFileDigest. Returns "" or an error;
 * adds the replica's own time to @p ledger.tracedMs. */
std::string
tracedReplay(const SimJobSpec &spec, const Verdict &expected,
             Ledger &ledger)
{
    auto t_all = Clock::now();
    auto t = Clock::now();
    std::string contents;
    if (!readFileToString(spec.tracePath, contents))
        return "cannot read " + spec.tracePath;
    std::vector<std::uint8_t> bytes(contents.begin(), contents.end());
    ledger.readMs += msSince(t);

    TraceReplaySpec rs;
    rs.program = spec.program.get();
    rs.programDigest = programDigest(*spec.program);
    rs.scheme = spec.system.core.scheme;
    rs.filters = spec.system.core.filters;
    rs.attachScChecker = spec.attachScChecker;
    TraceReplayResult r;
    try {
        t = Clock::now();
        r = replayTrace(bytes, rs);
        ledger.replayMs += msSince(t);
    } catch (const TraceError &e) {
        return spec.system.jobName + ": " + e.what();
    }
    ledger.tracedMs += msSince(t_all);

    t = Clock::now();
    std::uint64_t file_digest = 0;
    try {
        file_digest = traceFileDigest(spec.tracePath);
    } catch (const TraceError &e) {
        return spec.system.jobName + ": " + e.what();
    }
    ledger.fileDigestMs += msSince(t);
    ledger.traceBytes += bytes.size();
    ledger.traceInstructions += r.trailer.instructions;

    if (file_digest != spec.traceDigest ||
        r.trailer.fileDigest != spec.traceDigest || !r.memDigestMatch ||
        r.versionMismatches != 0)
        return spec.system.jobName + ": trace content or replayed "
                                     "memory image diverges";
    if (!(verdictOf(r) == expected))
        return spec.system.jobName +
               ": replay verdict differs from the capture run";
    return "";
}

// --- correctness gate -------------------------------------------------

/**
 * Counts a job as failed when it threw (deadlock, audit violation,
 * trace error), when its canonical result bytes differ from the pinned
 * digest (default seed only) or from its own first result, or when a
 * trace replay's verdict differs from its capture run.
 */
class Gate
{
  public:
    Gate(std::string workload, double scale, bool use_pins,
         const std::string &pins_path)
        : workload_(std::move(workload)), scale_(scale),
          usePins_(use_pins)
    {
        if (!usePins_)
            return;
        std::ifstream in(pins_path);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream ls(line);
            std::string wl, scale_text, job, digest;
            if (!(ls >> wl >> scale_text >> job >> digest) ||
                wl[0] == '#')
                continue;
            if (wl == workload_ && scale_text == scaleKey())
                pins_[job] = digest;
        }
    }

    std::string
    scaleKey() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", scale_);
        return buf;
    }

    /** Records the job's outcome; false (and a note) on failure. */
    bool
    check(const SimJobSpec &spec, const SimJobResult &r,
          const std::string &error, const Verdict *expected)
    {
        ++attempted;
        std::string why = error;
        if (why.empty()) {
            std::uint64_t d = resultDigest(r);
            const std::string &name = spec.system.jobName;
            auto first = first_.emplace(name, d).first;
            if (first->second != d)
                why = name + ": result differs from its first run";
            else if (usePins_ && pins_.count(name) == 0)
                why = name + ": no pinned digest";
            else if (usePins_ && pins_[name] != hex64(d))
                why = name + ": result differs from the pinned digest";
            else if (expected != nullptr &&
                     !(verdictOf(r, extraStat(r, "trace:final_mem_digest")) ==
                       *expected))
                why = name + ": replay verdict differs from the capture";
        }
        return record(why);
    }

    /** Count a traced-pass check that has no SimJobResult. */
    bool
    record(const std::string &why)
    {
        if (why.empty())
            return true;
        ++failed;
        if (failed <= 5)
            std::fprintf(stderr, "[gate] FAILED %s\n", why.c_str());
        return false;
    }

    void
    writePins(const std::string &path) const
    {
        std::ofstream out(path, std::ios::app);
        for (const auto &[name, d] : first_)
            out << workload_ << ' ' << scaleKey() << ' ' << name << ' '
                << hex64(d) << '\n';
        if (!out)
            fatal("cannot write " + path);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::string workload_;
    double scale_;
    bool usePins_;
    std::map<std::string, std::string> pins_;
    std::map<std::string, std::uint64_t> first_;
};

// --- set-up -------------------------------------------------------------

/** What a workload's set-up produces. */
struct Prepared
{
    std::vector<SimJobSpec> full; ///< full-simulation specs
    std::vector<SimJobSpec> jobs; ///< the timed jobs
    std::map<const Program *, FunctionalRef> refs;
    std::vector<Verdict> expected; ///< trace_replay: per timed job
};

struct JobSample
{
    SimJobResult result;
    std::string error;
    double ms = 0.0;
    double cpuMs = 0.0; ///< the worker thread's CPU time for the job
};

/** One closed-loop pass: @p workers sweep workers each take the next
 * runSimJob as soon as their previous one returns. */
std::vector<JobSample>
runPass(const std::vector<SimJobSpec> &jobs, unsigned workers,
        double &wall_ms)
{
    std::vector<std::function<JobSample()>> fns;
    for (const SimJobSpec &spec : jobs)
        fns.emplace_back([&spec] {
            JobSample s;
            double cpu = threadCpuMs();
            auto t = Clock::now();
            try {
                // Guarded: a deadlock throws instead of exiting, so it
                // counts as a failed job. The success path is the same.
                s.result = runSimJob(spec, /*guarded=*/true);
            } catch (const std::exception &e) {
                s.error = spec.system.jobName + ": " + e.what();
            }
            s.ms = msSince(t);
            s.cpuMs = threadCpuMs() - cpu;
            return s;
        });
    auto t = Clock::now();
    std::vector<JobSample> out = SweepRunner(workers).run(std::move(fns));
    wall_ms = msSince(t);
    return out;
}

/**
 * Build programs and functional references; for trace_replay also
 * capture every trace of the grid (through runSimJob on @p workers, or
 * serially through the traced replica when @p ledger is given).
 */
Prepared
setUp(const Options &o, double scale, unsigned workers, Gate &gate,
      Ledger *ledger)
{
    Prepared p;
    const std::string trace_dir = o.workDir + "/traces";
    auto t = Clock::now();
    p.full = fullSpecs(o.workload, scale, o.seed, trace_dir);
    if (ledger != nullptr)
        ledger->buildMs += msSince(t);
    for (const SimJobSpec &spec : p.full)
        if (spec.system.cores == 1 && p.refs.count(spec.program.get()) == 0)
            p.refs.emplace(spec.program.get(), functionalRef(*spec.program));

    if (o.workload != "trace_replay") {
        p.jobs = p.full;
        return p;
    }
    std::vector<FullReplica> captures(p.full.size());
    if (ledger != nullptr) {
        for (std::size_t i = 0; i < p.full.size(); ++i) {
            auto it = p.refs.find(p.full[i].program.get());
            captures[i] = tracedFull(
                p.full[i], *ledger,
                it == p.refs.end() ? nullptr : &it->second);
        }
    } else {
        double wall = 0.0;
        std::vector<JobSample> s = runPass(p.full, workers, wall);
        for (std::size_t i = 0; i < s.size(); ++i) {
            captures[i].result = std::move(s[i].result);
            captures[i].error = std::move(s[i].error);
        }
    }
    for (std::size_t i = 0; i < p.full.size(); ++i) {
        const SimJobSpec &spec = p.full[i];
        TraceHeader th;
        TraceTrailer tt;
        std::string contents;
        if (captures[i].error.empty()) {
            try {
                if (!readFileToString(traceFilePath(spec), contents))
                    throw TraceError("cannot read the capture");
                std::vector<std::uint8_t> bytes(contents.begin(),
                                                contents.end());
                readTraceSummary(bytes, th, tt);
            } catch (const TraceError &e) {
                captures[i].error = spec.system.jobName + ": " + e.what();
            }
        }
        // A failed capture leaves a job whose replay is bound to fail,
        // so it is counted once here and once per replay.
        gate.record(captures[i].error);
        p.jobs.push_back(replaySpecOf(spec, tt.fileDigest));
        p.expected.push_back(verdictOf(captures[i].result, tt.finalMemDigest));
    }
    return p;
}

// --- output ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Gate &gate, const std::vector<Metric> &metrics)
{
    JsonValue m = JsonValue::object();
    for (const Metric &x : metrics) {
        JsonValue v = JsonValue::object();
        v.set("value", x.value);
        v.set("unit", x.unit);
        m.set(x.name, std::move(v));
    }
    JsonValue o = JsonValue::object();
    o.set("correct", gate.failed == 0 && gate.attempted > 0);
    o.set("attempted", gate.attempted);
    o.set("failed", gate.failed);
    o.set("metrics", std::move(m));
    std::printf("%s\n", o.dump(0).c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// --- the two run kinds ------------------------------------------------------

/** End-to-end metrics: closed-loop passes for --seconds, untraced. */
std::vector<Metric>
timedRun(const Options &o, const Prepared &p, unsigned workers,
         Gate &gate, double setup_s, JsonValue &ctx)
{
    std::vector<double> kips, latency;
    std::uint64_t instructions = 0;
    double job_ms = 0.0, job_cpu_ms = 0.0;
    auto start = Clock::now();
    do {
        double wall = 0.0;
        std::vector<JobSample> s = runPass(p.jobs, workers, wall);
        std::uint64_t pass_instructions = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            latency.push_back(s[i].ms);
            job_ms += s[i].ms;
            job_cpu_ms += s[i].cpuMs;
            const Verdict *exp =
                p.expected.empty() ? nullptr : &p.expected[i];
            if (gate.check(p.jobs[i], s[i].result, s[i].error, exp))
                pass_instructions += s[i].result.stats.instructions;
        }
        instructions = pass_instructions;
        kips.push_back(static_cast<double>(pass_instructions) / wall);
    } while (msSince(start) < o.seconds * 1000.0 ||
             latency.size() < kMinLatencySamples);

    // Below 1 when the host took CPU time away from the workers.
    ctx.set("job_cpu_frac", ratio(job_cpu_ms, job_ms));
    ctx.set("pass_kips", [&] {
        JsonValue a = JsonValue::array();
        for (double k : kips)
            a.push(k);
        return a;
    }());
    ctx.set("passes", kips.size());
    ctx.set("latency_samples", latency.size());
    ctx.set("simulated_instructions_per_pass", instructions);
    return {
        {"sim_kips", quantile(kips, 0.5), "kinst/s"},
        {"job_ms_p50", quantile(latency, 0.5), "ms"},
        {"job_ms_p90", quantile(latency, 0.9), "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/**
 * Per-layer metrics: one untraced closed-loop pass (sweep
 * utilisation), then every job serially, each as an untraced runSimJob
 * followed by its traced replicas.
 */
std::vector<Metric>
tracedRun(const Options &o, const Prepared &p, unsigned workers,
          Gate &gate, Ledger &lg)
{
    const bool replay_workload = o.workload == "trace_replay";
    {
        double wall = 0.0;
        std::vector<JobSample> s = runPass(p.jobs, workers, wall);
        double busy = 0.0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            busy += s[i].ms;
            gate.check(p.jobs[i], s[i].result, s[i].error,
                       p.expected.empty() ? nullptr : &p.expected[i]);
        }
        lg.sweepUtil = busy / (workers * wall);
    }

    double audit_on_job_ms = 0.0, audit_off_job_ms = 0.0;
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
        const SimJobSpec &job = p.jobs[i];
        auto t = Clock::now();
        SimJobResult untraced;
        std::string error;
        try {
            untraced = runSimJob(job, /*guarded=*/true);
        } catch (const std::exception &e) {
            error = job.system.jobName + ": " + e.what();
        }
        double job_ms = msSince(t);
        lg.jobMs += job_ms;
        const Verdict *exp = replay_workload ? &p.expected[i] : nullptr;
        if (!gate.check(job, untraced, error, exp))
            continue;

        if (replay_workload) {
            gate.record(tracedReplay(job, p.expected[i], lg));
            SimJobSpec off = job;
            off.system.audit = AuditLevel::Off;
            t = Clock::now();
            try {
                runSimJob(off, /*guarded=*/true);
            } catch (const std::exception &e) {
                gate.record(off.system.jobName + ": " + e.what());
            }
            audit_off_job_ms += msSince(t);
            audit_on_job_ms += job_ms;
            continue;
        }

        auto it = p.refs.find(job.program.get());
        const FunctionalRef *ref = it == p.refs.end() ? nullptr : &it->second;
        FullReplica plain = tracedFull(job, lg, ref);
        lg.tracedMs += plain.ms;
        if (!gate.record(plain.error))
            continue;
        if (resultDigest(plain.result) != resultDigest(untraced)) {
            gate.record(job.system.jobName +
                        ": traced replica differs from runSimJob");
            continue;
        }
        SimJobResult off;
        lg.auditOffMs += auditOffRunMs(job, off.stats);
        if (resultDigest(off) != resultDigest(plain.result)) {
            gate.record(job.system.jobName +
                        ": result changes with the auditor off");
            continue;
        }

        // The trace tier on the same job: capture, then replay.
        Ledger capture_lg;
        SimJobSpec cap = job;
        cap.system.trackVersions = true;
        cap.system.traceDir = o.workDir + "/traces";
        cap.attachScChecker = true;
        FullReplica c = tracedFull(cap, capture_lg, nullptr);
        lg.imageDigestMs += capture_lg.imageDigestMs;
        lg.finalizeMs += capture_lg.finalizeMs;
        lg.scMs += capture_lg.scMs;
        lg.edges += capture_lg.edges;
        if (gate.record(c.error)) {
            Ledger replay_lg;
            SimJobSpec rspec = replaySpecOf(cap, c.fileDigest);
            gate.record(tracedReplay(rspec, verdictOf(c.result, c.memDigest),
                                     replay_lg));
            lg.readMs += replay_lg.readMs;
            lg.fileDigestMs += replay_lg.fileDigestMs;
            lg.replayMs += replay_lg.replayMs;
            lg.traceBytes += replay_lg.traceBytes;
            lg.traceInstructions += replay_lg.traceInstructions;
            std::error_code ec;
            std::filesystem::remove(rspec.tracePath, ec);
        }
    }
    if (replay_workload) {
        lg.auditOnMs = audit_on_job_ms;
        lg.auditOffMs = audit_off_job_ms;
    }

    // Layers that make up the measured (untraced) job time.
    double covered = replay_workload ? lg.readMs + lg.replayMs
                                     : lg.sysSetupMs + lg.sysRunMs;
    double other = lg.jobMs - covered;
    double overhead = ratio(lg.tracedMs, lg.jobMs) - 1.0;
    double audit_share = 1.0 - ratio(lg.auditOffMs, lg.auditOnMs);
    std::printf("[layers] %s: untraced serial job time %.1f ms over "
                "%zu jobs; traced replicas %+.1f%%\n",
                o.workload.c_str(), lg.jobMs, p.jobs.size(),
                overhead * 100.0);
    auto row = [&](const char *name, double ms) {
        std::printf("[layers]   %-22s %10.1f ms %6.1f%%\n", name, ms,
                    100.0 * ratio(ms, lg.jobMs));
    };
    if (replay_workload) {
        row("trace.read", lg.readMs);
        row("trace.replay", lg.replayMs);
        row("  trace.image_digest", lg.imageDigestMs);
        row("  check.sc", lg.scMs);
        std::printf("[layers]   (trace.image_digest and check.sc are "
                    "timed on the capture; replay repeats the same "
                    "calls)\n");
    } else {
        row("sys.setup", lg.sysSetupMs);
        row("sys.run", lg.sysRunMs);
        row("  verify (audit share)", audit_share * lg.sysRunMs);
    }
    row("other", other);

    double kinst = static_cast<double>(lg.instructions) / 1000.0;
    double trace_kinst = static_cast<double>(lg.traceInstructions) / 1000.0;
    return {
        {"workload.build_ms", lg.buildMs, "ms"},
        {"sys.setup_ms", lg.sysSetupMs, "ms"},
        {"sys.run_ms", lg.sysRunMs, "ms"},
        {"sys.other_ms", other, "ms"},
        {"sys.ns_per_ticked_cycle",
         ratio(lg.sysRunMs * 1e6, static_cast<double>(lg.ticked)), "ns"},
        {"sys.skipped_frac",
         ratio(static_cast<double>(lg.skipped),
               static_cast<double>(lg.skipped + lg.ticked)),
         "frac"},
        {"sys.traced_overhead_frac", overhead, "frac"},
        {"sweep.util", lg.sweepUtil, "frac"},
        {"verify.audit_share", audit_share, "frac"},
        {"verify.checks", replay_workload ? 0.0 : static_cast<double>(lg.checks),
         "count"},
        {"check.sc_ms", lg.scMs, "ms"},
        {"check.edges", static_cast<double>(lg.edges), "count"},
        {"trace.read_ms", lg.readMs, "ms"},
        {"trace.file_digest_ms", lg.fileDigestMs, "ms"},
        {"trace.image_digest_ms", lg.imageDigestMs, "ms"},
        {"trace.replay_ms", lg.replayMs, "ms"},
        {"trace.finalize_ms", lg.finalizeMs, "ms"},
        {"trace.bytes_per_kinst",
         ratio(static_cast<double>(lg.traceBytes), trace_kinst), "B/kinst"},
        {"core.ipc",
         ratio(static_cast<double>(lg.instructions),
               static_cast<double>(lg.cycles)),
         "inst/cycle"},
        {"core.rob_occupancy",
         ratio(lg.robCycles, static_cast<double>(lg.cycles)), "entries"},
        {"core.squashes_per_kinst",
         ratio(static_cast<double>(lg.squashes), kinst), "1/kinst"},
        {"ordering.replays_per_kinst",
         ratio(static_cast<double>(lg.replays), kinst), "1/kinst"},
        {"ordering.filter_skip_frac",
         ratio(static_cast<double>(lg.filtered),
               static_cast<double>(lg.filtered + lg.replays)),
         "frac"},
        {"ordering.lq_searches_per_kinst",
         ratio(static_cast<double>(lg.lqSearches), kinst), "1/kinst"},
        {"mem.l1d_per_inst",
         ratio(static_cast<double>(lg.l1d),
               static_cast<double>(lg.instructions)),
         "1/inst"},
        {"mem.invalidations_per_kinst",
         ratio(static_cast<double>(lg.invalidations), kinst), "1/kinst"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (o.workload == w.name)
            def = &w;
    if (def == nullptr)
        usage("unknown workload '" + o.workload + "'");
    const double scale = o.scale > 0.0 ? o.scale : def->scale;

    JsonValue env_set = JsonValue::array();
    for (const char *name : kIsolatedEnv) {
        if (std::getenv(name) != nullptr) {
            env_set.push(std::string(name));
            unsetenv(name);
        }
    }

    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    unsigned workers = std::min(kWorkers, nproc);
    const bool use_pins = o.seed == kDefaultSeed && o.writePins.empty();
    Gate gate(o.workload, scale, use_pins, o.pins);

    // The traced run sets up once, through the traced replicas. Every
    // repetition captures the same deterministic traces, so only the
    // last one's failures are counted.
    std::vector<double> setup_s;
    Ledger lg;
    Prepared p;
    Gate scratch(o.workload, scale, false, "");
    auto setup_start = Clock::now();
    while (!o.trace && (setup_s.size() + 1 < kMinSetupReps ||
                        (msSince(setup_start) < kMinSetupMs &&
                         setup_s.size() + 1 < kMaxSetupReps))) {
        auto t = Clock::now();
        p = setUp(o, scale, workers, scratch, nullptr);
        setup_s.push_back(msSince(t) / 1000.0);
    }
    auto t = Clock::now();
    p = setUp(o, scale, workers, gate, o.trace ? &lg : nullptr);
    setup_s.push_back(msSince(t) / 1000.0);

    JsonValue ctx = JsonValue::object();
    ctx.set("workload", o.workload);
    ctx.set("seed", o.seed);
    ctx.set("pinned_digests_checked", use_pins);
    ctx.set("scale", scale);
    ctx.set("workers", workers);
    ctx.set("nproc", nproc);
    ctx.set("audit", VBR_PERFBENCH_AUDIT);
    ctx.set("build_type", VBR_PERFBENCH_BUILD_TYPE);
    ctx.set("jobs", p.jobs.size());
    ctx.set("env_overridden", std::move(env_set));

    std::vector<Metric> metrics =
        o.trace ? tracedRun(o, p, workers, gate, lg)
                : timedRun(o, p, workers, gate, quantile(setup_s, 0.5), ctx);
    if (!o.writePins.empty())
        gate.writePins(o.writePins);
    std::printf("[context] %s\n", ctx.dump(0).c_str());
    printResult(gate, metrics);
    return 0;
}
