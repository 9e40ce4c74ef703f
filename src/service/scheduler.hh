/**
 * @file
 * The multi-tenant simulation scheduler: N concurrent sessions
 * multiplexed over ONE fixed worker pool.
 *
 * Everywhere else in the repository a simulation owns its execution
 * resources: an engine::Session holds its engine, and the
 * partition-parallel evaluator holds its own worker threads.  That is
 * the right shape for one user at one terminal — and exactly the
 * wrong shape for a regression farm, where M independent jobs on one
 * host each spin up their own pool and fight for the same cores (the
 * lock-file, one-job-at-a-time artifact-server workflow).  The
 * Scheduler inverts the ownership:
 *
 *  - ONE pool of `numWorkers` threads is created up front and never
 *    grows.  Session engines are created with their thread budget
 *    clamped to zero owned threads (EvalOptions::numThreads = 1, so
 *    netlist.parallel spawns an empty pool — see
 *    ParallelCompiledEvaluator::ownedThreads()); every engine
 *    executes on whichever scheduler worker picks its session up.
 *
 *  - Work is TIME-SLICED: a session's pending `run` advances in
 *    quanta of at most `quantumCycles` batched step(n) cycles, after
 *    which the session goes to the tail of the ready queue.  With R
 *    runnable sessions and one worker, any runnable session runs
 *    again within R quanta — the fairness bound the stress test pins.
 *
 *  - Admission control and backpressure are explicit: at most
 *    `maxSessions` live sessions (createSession rejects beyond it)
 *    and at most `maxQueuedPerSession` queued commands per session
 *    (submit returns false instead of queueing unboundedly).
 *
 *  - Idle costs nothing: workers park on a condition variable when
 *    the ready queue is empty, and a session with no pending work is
 *    simply absent from the ready queue.  A
 *    thousand idle sessions consume memory, not CPU.
 *
 * Threading contract: a session's engine is touched ONLY by the
 * worker currently holding the session's `executing` claim.  Client
 * threads never touch engines — asynchronous calls (submit*, poll,
 * cancel, destroySession) work on the scheduler's bookkeeping under
 * one mutex, and the synchronous reads (readProbe, meter, displayLog,
 * saveCheckpoint) take the same claim a worker would, after waiting
 * for the session to drain.  `poll` is wait-free in the sense that it
 * only reads state published at the last quantum boundary.
 *
 * See src/service/README.md for the full architecture discussion and
 * tools/manticored.cc for the line-protocol daemon hosting this.
 */

#ifndef MANTICORE_SERVICE_SCHEDULER_HH
#define MANTICORE_SERVICE_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/registry.hh"
#include "netlist/netlist.hh"

namespace manticore::service {

/** Tenant session identifier; 0 is never a valid id. */
using SessionId = uint64_t;

/** Poke lane wildcard: broadcast the value to every lane. */
constexpr unsigned kAllLanes = ~0u;

struct SchedulerOptions
{
    /// Fixed worker-pool size; 0 means hardware_concurrency.
    unsigned numWorkers = 0;
    /// Cycles per scheduling quantum: one batched step(n) between
    /// visits to the ready queue.  Larger amortises scheduling
    /// overhead; smaller tightens the fairness/cancel latency bound.
    uint64_t quantumCycles = 4096;
    /// Admission control: live-session cap (createSession rejects).
    size_t maxSessions = 1024;
    /// Backpressure: queued-command cap per session (submit rejects).
    size_t maxQueuedPerSession = 64;
    /// Crash recovery: when non-zero, sessions whose engine supports
    /// cap::kSnapshot are checkpointed to `checkpointDir/
    /// session-<id>.mtsnap` (engine::writeSnapshotFile) every this
    /// many simulated cycles, at the next quantum boundary.
    uint64_t checkpointEveryCycles = 0;
    std::string checkpointDir;
    /// Test hook: called with the session id at every completed
    /// quantum, under the scheduler lock (must not call back into
    /// the scheduler).  Used to pin the fairness bound.
    std::function<void(SessionId)> quantumTrace;
};

/** Session lifecycle phase (engine construction itself runs on a
 *  worker, so a freshly created session is not immediately ready). */
enum class Phase
{
    Creating, ///< engine::create queued or in flight on a worker
    Ready,    ///< engine constructed; commands execute
    Broken,   ///< engine construction failed (see PollResult::error)
};

const char *phaseName(Phase phase);

/** Published (quantum-boundary) view of a session; reading it never
 *  waits on the session's engine. */
struct PollResult
{
    bool exists = false;
    Phase phase = Phase::Creating;
    engine::Status status = engine::Status::Running;
    uint64_t cycle = 0;
    unsigned lanes = 1;
    /// Commands still queued (an in-progress run counts until done).
    size_t queued = 0;
    /// A worker is executing on the session right now.
    bool executing = false;
    uint64_t submittedRuns = 0;
    uint64_t completedRuns = 0;
    uint64_t canceledRuns = 0;
    std::string failureMessage;
    /// Creation or command failure detail ("" when healthy).
    std::string error;
};

/** Published per-lane view (ensemble sessions). */
struct LaneView
{
    engine::Status status = engine::Status::Running;
    uint64_t cycle = 0;
    std::string failureMessage;
};

class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions options = {});
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    // ---- session lifecycle ----------------------------------------

    /** Admit a new session: the engine (registry `engine_name` over
     *  `netlist`, ensemble width from `options`) is constructed
     *  asynchronously on a worker.  Returns 0 and sets `error` when
     *  admission fails (session cap, unknown/unavailable engine,
     *  lanes unsupported) — never fatal()s on tenant input.  The
     *  engine's own thread budget is clamped: session engines run on
     *  borrowed scheduler workers and never spawn their own pool. */
    SessionId createSession(const std::string &engine_name,
                            netlist::Netlist netlist,
                            engine::CreateOptions options = {},
                            std::string *error = nullptr);

    /** Destroy a session immediately: queued work is dropped, the
     *  entry disappears from the table, and the engine is released
     *  as soon as any in-flight quantum returns (a worker mid-quantum
     *  keeps the storage alive until it is done with it — detaching
     *  while running is safe).  Returns false on unknown id. */
    bool destroySession(SessionId id);

    // ---- asynchronous submit/poll/cancel --------------------------

    /** Queue `cycles` more simulated cycles, executed as time-sliced
     *  quanta.  False + `error` on unknown session or backpressure
     *  (queue full). */
    bool submitRun(SessionId id, uint64_t cycles,
                   std::string *error = nullptr);
    /** Queue a run up to absolute engine cycle `target_cycle`. */
    bool submitRunTo(SessionId id, uint64_t target_cycle,
                     std::string *error = nullptr);
    /** Queue an input poke (applies in submit order, i.e. after any
     *  run queued before it finishes).  The input name, lane and
     *  width are validated here against the session's netlist, so a
     *  bad poke is a rejected submit, not a server fatal(). */
    bool submitPoke(SessionId id, const std::string &input,
                    unsigned lane, const BitVector &value,
                    std::string *error = nullptr);

    /** Published state as of the last quantum boundary; never blocks
     *  on the engine. */
    PollResult poll(SessionId id) const;

    /** Declared width of a free input of the session's design (0 +
     *  `error` on unknown session or input).  The protocol layer uses
     *  this to size hex-encoded poke values. */
    unsigned inputWidth(SessionId id, const std::string &input,
                        std::string *error = nullptr) const;

    /** Block until the session has drained (no queued commands, no
     *  in-flight quantum) or `timeout_ms` elapsed (0 = wait forever).
     *  Returns false on timeout or if the session is gone. */
    bool wait(SessionId id, uint64_t timeout_ms = 0);

    /** Drop every queued command; an in-flight quantum finishes (its
     *  cycles are kept — a quantum is the cancellation granularity)
     *  and the interrupted run is dropped at the boundary.  Returns
     *  false on unknown id. */
    bool cancel(SessionId id);

    // ---- synchronous reads (wait for drain, then claim) -----------

    /** Read a probed signal by name on a drained session.  False +
     *  `error` on unknown session/signal/lane (never fatal()s). */
    bool readProbe(SessionId id, const std::string &signal,
                   unsigned lane, BitVector *out,
                   std::string *error = nullptr);

    /** Per-tenant metering: service counters (service.quanta,
     *  service.cycles, service.rejected, ...) followed by the
     *  engine's own named Stat counters. */
    std::vector<engine::Stat> meter(SessionId id);

    /** Per-lane published status/cycle/failure (empty on unknown). */
    std::vector<LaneView> laneViews(SessionId id) const;

    /** One lane's $display transcript (copy; empty on unknown). */
    std::vector<std::string> displayLog(SessionId id, unsigned lane);

    /** Checkpoint a drained session to `path` in the MTSNAP on-disk
     *  format (engine must support cap::kSnapshot).  False + `error`
     *  on unknown session or unsupported engine. */
    bool saveCheckpoint(SessionId id, const std::string &path,
                        std::string *error = nullptr);

    // ---- service-level introspection ------------------------------

    /** Aggregate counters: sessions, workers, quanta, cycles,
     *  admission/backpressure rejections. */
    std::vector<engine::Stat> serviceStats() const;

    unsigned numWorkers() const { return _numWorkers; }
    size_t numSessions() const;
    const SchedulerOptions &options() const { return _opts; }

  private:
    struct Command
    {
        enum class Kind
        {
            Poke,
            Run
        };
        Kind kind = Kind::Run;
        uint64_t seq = 0; ///< per-session submit sequence
        // Poke (name validated against the session netlist at submit;
        // kAllLanes broadcasts)
        std::string inputName;
        unsigned lane = 0;
        BitVector value;
        // Run: remaining relative cycles, or the absolute target.
        uint64_t cycles = 0;
        bool absolute = false;
    };

    struct Session
    {
        SessionId id = 0;
        std::string engineName;
        netlist::Netlist netlist;
        engine::CreateOptions createOptions;

        std::unique_ptr<engine::Engine> engine;
        /// Static caps of the registry engine (pre-creation checks).
        uint32_t infoCaps = 0;
        /// Requested ensemble width (known before the engine exists).
        unsigned requestedLanes = 1;
        /// Cached bindInput handles (resolved once per input name;
        /// touched only under the executing claim).
        std::unordered_map<std::string, engine::InputHandle>
            inputHandles;

        std::deque<Command> queue;
        uint64_t nextSeq = 1;
        bool inReady = false;   ///< sitting in the ready queue
        bool executing = false; ///< claimed by a worker / sync reader
        bool closing = false;   ///< destroySession() called
        bool canceled = false;  ///< cancel() raced an in-flight quantum

        Phase phase = Phase::Creating;
        std::string error;

        // Published at quantum boundaries (poll reads these).
        engine::Status pubStatus = engine::Status::Running;
        uint64_t pubCycle = 0;
        unsigned pubLanes = 1;
        std::string pubFailure;
        std::vector<LaneView> pubLaneViews;
        std::vector<engine::Stat> pubStats;

        // Per-tenant metering.
        uint64_t submittedRuns = 0;
        uint64_t completedRuns = 0;
        uint64_t canceledRuns = 0;
        uint64_t quanta = 0;
        uint64_t simCycles = 0; ///< cycles x lanes delivered
        uint64_t rejected = 0;  ///< backpressured submits
        uint64_t checkpoints = 0;
        uint64_t checkpointDue = 0;
    };

    using SessionPtr = std::shared_ptr<Session>;

    void workerLoop();
    /** Execute one quantum on a claimed session; `lk` is held on
     *  entry and exit, dropped around engine work. */
    void executeQuantum(std::unique_lock<std::mutex> &lk, Session &s);
    void constructEngine(std::unique_lock<std::mutex> &lk, Session &s);
    void publish(Session &s);
    void enqueueReady(const SessionPtr &s);
    SessionPtr findSession(SessionId id) const;
    bool submitCommand(SessionId id, Command cmd, std::string *error);
    /** Wait until `id` is drained, then claim it (executing = true).
     *  Returns nullptr (+error) if the session vanished or its
     *  engine never constructed. */
    SessionPtr claimDrained(SessionId id, std::string *error);
    void releaseClaim(const SessionPtr &s);
    /** Periodic checkpoint (claim held, _mx unlocked: file I/O).
     *  Returns true when a checkpoint file was written — the caller
     *  bumps Session::checkpoints under the lock.  A write failure
     *  (checkpoint directory gone, disk full) warns, fills `error`
     *  for the caller to record on the session, and backs off one
     *  full interval; it never kills the daemon. */
    bool maybeCheckpoint(Session &s, std::string *error);

    SchedulerOptions _opts;
    unsigned _numWorkers = 1;

    mutable std::mutex _mx;
    std::condition_variable _workCv; ///< workers park here when idle
    std::condition_variable _idleCv; ///< wait()/sync reads park here
    bool _shutdown = false;

    std::unordered_map<SessionId, SessionPtr> _sessions;
    std::deque<SessionPtr> _ready;
    SessionId _nextId = 1;

    // Service-level metering (under _mx).
    uint64_t _createdSessions = 0;
    uint64_t _rejectedSessions = 0;
    uint64_t _rejectedSubmits = 0;
    uint64_t _totalQuanta = 0;
    uint64_t _totalCycles = 0;

    std::vector<std::thread> _workers;
};

} // namespace manticore::service

#endif // MANTICORE_SERVICE_SCHEDULER_HH
