#include "service/scheduler.hh"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "engine/snapshot.hh"
#include "engine/snapshot_io.hh"
#include "support/logging.hh"
#include "support/namelist.hh"

namespace fs = std::filesystem;

namespace manticore::service {

namespace {

void
setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

} // namespace

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Creating: return "creating";
      case Phase::Ready: return "ready";
      case Phase::Broken: return "broken";
    }
    return "?";
}

Scheduler::Scheduler(SchedulerOptions options) : _opts(std::move(options))
{
    unsigned hw = std::thread::hardware_concurrency();
    _numWorkers =
        _opts.numWorkers != 0 ? _opts.numWorkers : std::max(1u, hw);
    if (_opts.quantumCycles == 0)
        _opts.quantumCycles = 1;
    if (_opts.maxSessions == 0)
        _opts.maxSessions = 1;
    if (_opts.maxQueuedPerSession == 0)
        _opts.maxQueuedPerSession = 1;
    if (_opts.checkpointEveryCycles != 0 && _opts.checkpointDir.empty())
        MANTICORE_FATAL("SchedulerOptions::checkpointEveryCycles needs "
                        "a checkpointDir");
    if (!_opts.checkpointDir.empty()) {
        std::error_code ec;
        fs::create_directories(_opts.checkpointDir, ec);
        if (ec)
            MANTICORE_FATAL("cannot create checkpoint directory ",
                            _opts.checkpointDir, ": ", ec.message());
    }
    for (unsigned i = 0; i < _numWorkers; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

Scheduler::~Scheduler()
{
    {
        std::lock_guard<std::mutex> lk(_mx);
        _shutdown = true;
    }
    _workCv.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

// ---------------------------------------------------------------------------
// Session lifecycle
// ---------------------------------------------------------------------------

SessionId
Scheduler::createSession(const std::string &engine_name,
                         netlist::Netlist netlist,
                         engine::CreateOptions options, std::string *error)
{
    // Pre-validate everything engine::create() would fatal() on: a
    // tenant's bad request must be a rejected request, never a dead
    // server.  engine::find/list are thread-safe (see registry.cc).
    const engine::EngineInfo *info = engine::find(engine_name);
    if (!info) {
        setError(error,
                 detail::formatAll("no such engine: ", engine_name,
                                   " (registered engines: ",
                                   formatNameList(engine::names()), ")"));
        return 0;
    }
    if (!info->available) {
        setError(error, detail::formatAll("engine ", engine_name,
                                          " unavailable on this host (",
                                          info->availabilityNote, ")"));
        return 0;
    }
    unsigned lanes =
        options.lanes != 1 ? options.lanes : options.eval.lanes;
    if (lanes == 0) {
        setError(error, "lanes must be >= 1");
        return 0;
    }
    if (lanes != 1 && !(info->caps & engine::cap::kEnsemble)) {
        setError(error, detail::formatAll("engine ", engine_name,
                                          " has no ensemble mode (lanes=",
                                          lanes, ")"));
        return 0;
    }
    if (lanes > 16 && !info->netlistLevel) {
        setError(error, detail::formatAll("engine ", engine_name,
                                          " ensembles cap at 16 lanes "
                                          "(asked for ",
                                          lanes, ")"));
        return 0;
    }
    if (!(info->caps & engine::cap::kInputs)) {
        // Engines without input support fatal() in their compiler on
        // an open design — admission is where that becomes a polite
        // rejection instead of a dead server.
        std::vector<std::string> open = netlist.inputNames();
        if (!open.empty()) {
            setError(error,
                     detail::formatAll("engine ", engine_name,
                                       " cannot simulate open designs "
                                       "(free input '",
                                       open.front(), "')"));
            return 0;
        }
    }
    // The ownership inversion: session engines never spawn their own
    // worker pool — they execute on whichever scheduler worker holds
    // the session's claim (numThreads=1 keeps netlist.parallel's
    // owned pool empty, see ParallelCompiledEvaluator::ownedThreads).
    options.lanes = lanes;
    options.eval.lanes = lanes;
    options.eval.numThreads = 1;

    std::lock_guard<std::mutex> lk(_mx);
    if (_sessions.size() >= _opts.maxSessions) {
        ++_rejectedSessions;
        setError(error, detail::formatAll(
                            "admission control: session limit reached (",
                            _opts.maxSessions, ")"));
        return 0;
    }
    SessionId id = _nextId++;
    auto s = std::make_shared<Session>();
    s->id = id;
    s->engineName = engine_name;
    s->netlist = std::move(netlist);
    s->createOptions = std::move(options);
    s->infoCaps = info->caps;
    s->requestedLanes = lanes;
    s->pubLanes = lanes;
    _sessions.emplace(id, s);
    ++_createdSessions;
    enqueueReady(s); // engine construction is the first quantum
    return id;
}

bool
Scheduler::destroySession(SessionId id)
{
    std::lock_guard<std::mutex> lk(_mx);
    auto it = _sessions.find(id);
    if (it == _sessions.end())
        return false;
    SessionPtr s = it->second;
    // A worker mid-quantum holds its own shared_ptr and checks
    // `closing` at the boundary, so detaching while running is safe:
    // the engine is released as soon as the quantum returns.
    s->closing = true;
    s->queue.clear();
    _sessions.erase(it);
    _idleCv.notify_all();
    return true;
}

// ---------------------------------------------------------------------------
// Asynchronous submits
// ---------------------------------------------------------------------------

bool
Scheduler::submitCommand(SessionId id, Command cmd, std::string *error)
{
    std::lock_guard<std::mutex> lk(_mx);
    auto it = _sessions.find(id);
    if (it == _sessions.end()) {
        setError(error, detail::formatAll("no such session: ", id));
        return false;
    }
    SessionPtr s = it->second;
    if (s->phase == Phase::Broken) {
        setError(error, detail::formatAll("session ", id,
                                          " engine failed to construct: ",
                                          s->error));
        return false;
    }
    if (s->queue.size() >= _opts.maxQueuedPerSession) {
        ++s->rejected;
        ++_rejectedSubmits;
        setError(error,
                 detail::formatAll("backpressure: session ", id,
                                   " queue full (",
                                   _opts.maxQueuedPerSession, ")"));
        return false;
    }
    cmd.seq = s->nextSeq++;
    if (cmd.kind == Command::Kind::Run)
        ++s->submittedRuns;
    s->queue.push_back(std::move(cmd));
    enqueueReady(s);
    return true;
}

bool
Scheduler::submitRun(SessionId id, uint64_t cycles, std::string *error)
{
    Command cmd;
    cmd.kind = Command::Kind::Run;
    cmd.cycles = cycles;
    cmd.absolute = false;
    return submitCommand(id, std::move(cmd), error);
}

bool
Scheduler::submitRunTo(SessionId id, uint64_t target_cycle,
                       std::string *error)
{
    Command cmd;
    cmd.kind = Command::Kind::Run;
    cmd.cycles = target_cycle;
    cmd.absolute = true;
    return submitCommand(id, std::move(cmd), error);
}

bool
Scheduler::submitPoke(SessionId id, const std::string &input,
                      unsigned lane, const BitVector &value,
                      std::string *error)
{
    // Validate against the session's netlist up front so the worker
    // can bindInput/drive without any fatal() path left.
    {
        std::lock_guard<std::mutex> lk(_mx);
        auto it = _sessions.find(id);
        if (it == _sessions.end()) {
            setError(error, detail::formatAll("no such session: ", id));
            return false;
        }
        SessionPtr s = it->second;
        if (!(s->infoCaps & engine::cap::kInputs)) {
            setError(error,
                     detail::formatAll("engine ", s->engineName,
                                       " has no free inputs to poke"));
            return false;
        }
        netlist::NodeId node = s->netlist.findInput(input);
        if (node == netlist::kInvalidNode) {
            setError(error,
                     detail::formatAll(
                         "no such input '", input, "' (inputs: ",
                         formatNameList(s->netlist.inputNames()), ")"));
            return false;
        }
        unsigned width = s->netlist.node(node).width;
        if (width != value.width()) {
            setError(error, detail::formatAll(
                                "input '", input, "' is ", width,
                                " bit(s), poked ", value.width()));
            return false;
        }
        if (lane != kAllLanes && lane >= s->requestedLanes) {
            setError(error,
                     detail::formatAll("lane ", lane,
                                       " out of range (session has ",
                                       s->requestedLanes, " lane(s))"));
            return false;
        }
    }
    Command cmd;
    cmd.kind = Command::Kind::Poke;
    cmd.inputName = input;
    cmd.lane = lane;
    cmd.value = value;
    return submitCommand(id, std::move(cmd), error);
}

// ---------------------------------------------------------------------------
// Poll / wait / cancel
// ---------------------------------------------------------------------------

Scheduler::SessionPtr
Scheduler::findSession(SessionId id) const
{
    auto it = _sessions.find(id);
    return it == _sessions.end() ? nullptr : it->second;
}

PollResult
Scheduler::poll(SessionId id) const
{
    std::lock_guard<std::mutex> lk(_mx);
    PollResult r;
    SessionPtr s = findSession(id);
    if (!s)
        return r;
    r.exists = true;
    r.phase = s->phase;
    r.status = s->pubStatus;
    r.cycle = s->pubCycle;
    r.lanes = s->pubLanes;
    r.queued = s->queue.size();
    r.executing = s->executing;
    r.submittedRuns = s->submittedRuns;
    r.completedRuns = s->completedRuns;
    r.canceledRuns = s->canceledRuns;
    r.failureMessage = s->pubFailure;
    r.error = s->error;
    return r;
}

unsigned
Scheduler::inputWidth(SessionId id, const std::string &input,
                      std::string *error) const
{
    std::lock_guard<std::mutex> lk(_mx);
    SessionPtr s = findSession(id);
    if (!s) {
        setError(error, detail::formatAll("no such session: ", id));
        return 0;
    }
    netlist::NodeId node = s->netlist.findInput(input);
    if (node == netlist::kInvalidNode) {
        setError(error,
                 detail::formatAll("no such input '", input,
                                   "' (inputs: ",
                                   formatNameList(s->netlist.inputNames()),
                                   ")"));
        return 0;
    }
    return s->netlist.node(node).width;
}

bool
Scheduler::wait(SessionId id, uint64_t timeout_ms)
{
    std::unique_lock<std::mutex> lk(_mx);
    auto drained = [&]() -> bool {
        SessionPtr s = findSession(id);
        if (!s)
            return true; // destroyed: nothing left to wait for
        return s->phase != Phase::Creating && !s->executing &&
               !s->inReady && s->queue.empty();
    };
    if (timeout_ms == 0) {
        _idleCv.wait(lk, drained);
    } else {
        if (!_idleCv.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                              drained))
            return false;
    }
    return findSession(id) != nullptr;
}

bool
Scheduler::cancel(SessionId id)
{
    std::lock_guard<std::mutex> lk(_mx);
    SessionPtr s = findSession(id);
    if (!s)
        return false;
    for (const Command &cmd : s->queue)
        if (cmd.kind == Command::Kind::Run)
            ++s->canceledRuns;
    s->queue.clear();
    if (s->executing)
        s->canceled = true; // drop the in-flight run at the boundary
    _idleCv.notify_all();
    return true;
}

// ---------------------------------------------------------------------------
// Synchronous reads (drain + claim)
// ---------------------------------------------------------------------------

Scheduler::SessionPtr
Scheduler::claimDrained(SessionId id, std::string *error)
{
    std::unique_lock<std::mutex> lk(_mx);
    for (;;) {
        SessionPtr s = findSession(id);
        if (!s) {
            setError(error, detail::formatAll("no such session: ", id));
            return nullptr;
        }
        if (s->phase == Phase::Broken) {
            setError(error,
                     detail::formatAll("session ", id,
                                       " engine failed to construct: ",
                                       s->error));
            return nullptr;
        }
        if (s->phase == Phase::Ready && !s->executing && !s->inReady &&
            s->queue.empty()) {
            // Claim exactly as a worker would: no worker touches a
            // session outside the ready queue, and submits arriving
            // during the claim see `executing` and park in the queue.
            s->executing = true;
            return s;
        }
        _idleCv.wait(lk);
    }
}

void
Scheduler::releaseClaim(const SessionPtr &s)
{
    std::lock_guard<std::mutex> lk(_mx);
    s->executing = false;
    enqueueReady(s); // submits that arrived during the claim
    _idleCv.notify_all();
}

bool
Scheduler::readProbe(SessionId id, const std::string &signal,
                     unsigned lane, BitVector *out, std::string *error)
{
    SessionPtr s = claimDrained(id, error);
    if (!s)
        return false;
    engine::Engine &eng = *s->engine;
    bool ok = false;
    size_t n = eng.has(engine::cap::kProbes) ? eng.numProbes() : 0;
    engine::ProbeHandle handle = 0;
    for (engine::ProbeHandle h = 0; h < n; ++h) {
        if (eng.probeName(h) == signal) {
            handle = h;
            ok = true;
            break;
        }
    }
    if (!ok) {
        setError(error, detail::formatAll("no such signal '", signal,
                                          "' on engine ", eng.name()));
    } else if (lane >= eng.lanes()) {
        setError(error,
                 detail::formatAll("lane ", lane,
                                   " out of range (session has ",
                                   eng.lanes(), " lane(s))"));
        ok = false;
    } else if (out) {
        *out = eng.readLane(handle, lane);
    }
    releaseClaim(s);
    return ok;
}

std::vector<engine::Stat>
Scheduler::meter(SessionId id)
{
    std::lock_guard<std::mutex> lk(_mx);
    std::vector<engine::Stat> out;
    SessionPtr s = findSession(id);
    if (!s)
        return out;
    out.push_back({"service.quanta", s->quanta});
    out.push_back({"service.cycles", s->simCycles});
    out.push_back({"service.submitted_runs", s->submittedRuns});
    out.push_back({"service.completed_runs", s->completedRuns});
    out.push_back({"service.canceled_runs", s->canceledRuns});
    out.push_back({"service.rejected", s->rejected});
    out.push_back({"service.queued", s->queue.size()});
    out.push_back({"service.checkpoints", s->checkpoints});
    // The engine's own named counters, as published at the last
    // quantum boundary (so metering never waits on the engine).
    out.insert(out.end(), s->pubStats.begin(), s->pubStats.end());
    return out;
}

std::vector<LaneView>
Scheduler::laneViews(SessionId id) const
{
    std::lock_guard<std::mutex> lk(_mx);
    SessionPtr s = findSession(id);
    return s ? s->pubLaneViews : std::vector<LaneView>{};
}

std::vector<std::string>
Scheduler::displayLog(SessionId id, unsigned lane)
{
    SessionPtr s = claimDrained(id, nullptr);
    if (!s)
        return {};
    std::vector<std::string> out;
    engine::Engine &eng = *s->engine;
    if (eng.has(engine::cap::kDisplayLog) && lane < eng.lanes())
        out = eng.laneDisplayLog(lane);
    releaseClaim(s);
    return out;
}

bool
Scheduler::saveCheckpoint(SessionId id, const std::string &path,
                          std::string *error)
{
    SessionPtr s = claimDrained(id, error);
    if (!s)
        return false;
    engine::Engine &eng = *s->engine;
    bool ok = false;
    if (!eng.has(engine::cap::kSnapshot)) {
        setError(error,
                 detail::formatAll("engine ", eng.name(),
                                   " has no checkpoint support "
                                   "(cap::kSnapshot)"));
    } else {
        engine::Snapshot snap;
        eng.save(snap);
        // The tenant names the path, so write failures (bad directory,
        // no permission, disk full) must be err replies, never a
        // fatal(): one bad request must not kill the daemon.
        std::string io_error;
        if (engine::tryWriteSnapshotFile(snap, path, &io_error)) {
            std::lock_guard<std::mutex> lk(_mx);
            ++s->checkpoints;
            ok = true;
        } else {
            setError(error, io_error);
        }
    }
    releaseClaim(s);
    return ok;
}

std::vector<engine::Stat>
Scheduler::serviceStats() const
{
    std::lock_guard<std::mutex> lk(_mx);
    return {
        {"sessions", _sessions.size()},
        {"ready", _ready.size()},
        {"workers", _numWorkers},
        {"created_sessions", _createdSessions},
        {"rejected_sessions", _rejectedSessions},
        {"rejected_submits", _rejectedSubmits},
        {"quanta", _totalQuanta},
        {"cycles", _totalCycles},
    };
}

size_t
Scheduler::numSessions() const
{
    std::lock_guard<std::mutex> lk(_mx);
    return _sessions.size();
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

void
Scheduler::enqueueReady(const SessionPtr &s)
{
    if (s->inReady || s->executing || s->closing)
        return;
    if (s->queue.empty() && s->phase != Phase::Creating)
        return; // nothing to do: idle sessions stay off the queue
    s->inReady = true;
    _ready.push_back(s);
    _workCv.notify_one();
}

void
Scheduler::workerLoop()
{
    // Workers park on a condvar whenever the ready queue is empty,
    // so an idle service burns zero CPU.
    std::unique_lock<std::mutex> lk(_mx);
    for (;;) {
        _workCv.wait(lk, [&] { return _shutdown || !_ready.empty(); });
        if (_shutdown)
            return;
        SessionPtr s = _ready.front();
        _ready.pop_front();
        s->inReady = false;
        if (s->closing) {
            _idleCv.notify_all();
            continue;
        }
        s->executing = true;
        executeQuantum(lk, *s);
        s->executing = false;
        ++_totalQuanta;
        ++s->quanta;
        if (_opts.quantumTrace)
            _opts.quantumTrace(s->id);
        // Fair round-robin: unfinished sessions go to the TAIL, so
        // with R runnable sessions none waits more than R quanta.
        if (!s->closing && !s->queue.empty())
            enqueueReady(s);
        else
            _idleCv.notify_all();
    }
}

void
Scheduler::constructEngine(std::unique_lock<std::mutex> &lk, Session &s)
{
    std::string name = s.engineName;
    engine::CreateOptions opts = s.createOptions;
    lk.unlock();
    // The claim makes s.netlist safe to read unlocked: it is never
    // written after createSession.  All fatal() paths were
    // pre-validated; what remains (bad_alloc, toolchain loss) is
    // reported as a broken session, not a dead server.
    std::unique_ptr<engine::Engine> eng;
    std::string err;
    try {
        eng = engine::create(name, s.netlist, opts);
    } catch (const std::exception &e) {
        err = e.what();
    } catch (...) {
        err = "engine construction failed";
    }
    lk.lock();
    if (!eng) {
        s.phase = Phase::Broken;
        s.error = err.empty() ? "engine construction failed" : err;
        s.queue.clear();
        return;
    }
    s.engine = std::move(eng);
    s.phase = Phase::Ready;
    s.checkpointDue = _opts.checkpointEveryCycles;
    publish(s);
}

void
Scheduler::publish(Session &s)
{
    engine::Engine &eng = *s.engine;
    s.pubStatus = eng.status();
    s.pubCycle = eng.cycle();
    s.pubLanes = eng.lanes();
    s.pubFailure = eng.failureMessage();
    s.pubLaneViews.resize(s.pubLanes);
    for (unsigned l = 0; l < s.pubLanes; ++l) {
        s.pubLaneViews[l].status = eng.laneStatus(l);
        s.pubLaneViews[l].cycle = eng.laneCycle(l);
        s.pubLaneViews[l].failureMessage = eng.laneFailureMessage(l);
    }
    s.pubStats = eng.stats();
}

bool
Scheduler::maybeCheckpoint(Session &s, std::string *error)
{
    // Called with the claim held and _mx UNLOCKED (file I/O).
    // `checkpointDue` is claim-protected; `checkpoints` is read by
    // meter() under _mx, so the caller increments it after relocking.
    if (_opts.checkpointEveryCycles == 0)
        return false;
    engine::Engine &eng = *s.engine;
    if (!eng.has(engine::cap::kSnapshot))
        return false;
    if (eng.cycle() < s.checkpointDue)
        return false;
    // Either way the next attempt is a full interval out: a dead
    // checkpoint directory must degrade to a warning per interval,
    // not a write failure per quantum — and never a dead daemon.
    s.checkpointDue = eng.cycle() + _opts.checkpointEveryCycles;
    engine::Snapshot snap;
    eng.save(snap);
    std::string path = _opts.checkpointDir + "/session-" +
                       std::to_string(s.id) + ".mtsnap";
    std::string io_error;
    if (!engine::tryWriteSnapshotFile(snap, path, &io_error)) {
        MANTICORE_WARN("session ", s.id, ": periodic checkpoint "
                       "failed: ", io_error);
        setError(error, std::move(io_error));
        return false;
    }
    return true;
}

void
Scheduler::executeQuantum(std::unique_lock<std::mutex> &lk, Session &s)
{
    if (s.phase == Phase::Creating) {
        constructEngine(lk, s);
        return;
    }
    if (s.phase == Phase::Broken) {
        s.queue.clear();
        return;
    }
    engine::Engine *eng = s.engine.get();

    // Drain leading pokes: cheap, and keeping them ahead of the next
    // run slice preserves strict submit order.
    while (!s.queue.empty() &&
           s.queue.front().kind == Command::Kind::Poke) {
        Command cmd = std::move(s.queue.front());
        s.queue.pop_front();
        lk.unlock();
        // Same discipline as the step() quantum below: an engine
        // exception (bad_alloc, an edge case submit-time validation
        // missed) is recorded on the session, never allowed to
        // propagate out of workerLoop and terminate the daemon.
        std::string poke_err;
        try {
            auto it = s.inputHandles.find(cmd.inputName);
            if (it == s.inputHandles.end())
                it = s.inputHandles
                         .emplace(cmd.inputName,
                                  eng->bindInput(cmd.inputName))
                         .first;
            if (cmd.lane == kAllLanes)
                eng->setInput(it->second, cmd.value);
            else
                engine::driveLane(*eng, it->second, cmd.lane,
                                  cmd.value);
        } catch (const std::exception &e) {
            poke_err = e.what();
        } catch (...) {
            poke_err = "engine exception during poke";
        }
        lk.lock();
        if (!poke_err.empty())
            s.error = std::move(poke_err);
        if (s.canceled) {
            s.canceled = false; // queue already cleared by cancel()
            publish(s);
            return;
        }
    }
    if (s.queue.empty() || s.queue.front().kind != Command::Kind::Run) {
        publish(s);
        return;
    }

    // One time-slice of the head run command.
    const Command &front = s.queue.front();
    uint64_t front_seq = front.seq;
    uint64_t remaining =
        front.absolute
            ? (front.cycles > eng->cycle() ? front.cycles - eng->cycle()
                                           : 0)
            : front.cycles;
    uint64_t slice = std::min(remaining, _opts.quantumCycles);
    lk.unlock();
    engine::RunResult rr;
    std::string err;
    try {
        if (slice != 0)
            rr = eng->step(slice);
    } catch (const std::exception &e) {
        err = e.what();
    } catch (...) {
        err = "engine exception during quantum";
    }
    std::string checkpoint_err;
    bool checkpointed =
        err.empty() && maybeCheckpoint(s, &checkpoint_err);
    lk.lock();
    if (checkpointed)
        ++s.checkpoints;
    // A failed periodic checkpoint degrades: the session keeps
    // running (the run is NOT aborted like an engine error below),
    // but the failure is visible through poll()'s error field.
    if (!checkpoint_err.empty())
        s.error = std::move(checkpoint_err);
    publish(s);
    uint64_t delivered =
        rr.cycles * std::max<uint64_t>(1, rr.lanes);
    s.simCycles += delivered;
    _totalCycles += delivered;
    if (!err.empty())
        s.error = err;
    if (s.canceled) {
        // cancel() cleared the queue while this slice was in flight;
        // its cycles stand (the quantum is the cancel granularity)
        // but the rest of the run is dropped.  The accounting already
        // happened in cancel(): the in-flight run was still at the
        // queue front there, so it was counted with the rest —
        // counting it here again would double it.  Anything in the
        // queue now was submitted after the cancel and proceeds.
        s.canceled = false;
        return;
    }
    if (!s.queue.empty() && s.queue.front().seq == front_seq) {
        Command &f = s.queue.front();
        bool done;
        if (f.absolute) {
            done = s.pubCycle >= f.cycles;
        } else {
            f.cycles = f.cycles > rr.cycles ? f.cycles - rr.cycles : 0;
            done = f.cycles == 0;
        }
        bool terminal = s.pubStatus != engine::Status::Running;
        // slice == 0 covers an already-satisfied runto and a run
        // submitted to a terminal engine: both complete immediately.
        if (done || terminal || slice == 0 || !err.empty()) {
            s.queue.pop_front();
            ++s.completedRuns;
        }
    }
}

} // namespace manticore::service
