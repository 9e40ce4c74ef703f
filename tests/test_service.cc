/**
 * @file
 * Multi-tenant service tests (ctest label "service"; run under BOTH
 * sanitizer configs — the scheduler is the most concurrent code in
 * the repository).
 *
 * The load-bearing guarantees, each pinned here:
 *  - a tenant session is byte-identical to a dedicated engine run of
 *    the same design/stimulus, including at 32+ concurrent tenants;
 *  - fair round-robin: with one worker and R runnable sessions no
 *    session waits more than R quanta between visits;
 *  - admission control and per-session backpressure reject instead
 *    of queueing unboundedly (and reject instead of fatal()ing on
 *    bad tenant input — the server must not die);
 *  - cancel takes effect at the next quantum boundary; destroy is
 *    safe while a quantum is in flight; idle sessions consume no
 *    scheduler work; session engines own zero threads;
 *  - the registry is safe under concurrent engine::create;
 *  - the wire protocol round-trips all of the above over a
 *    socketpair, including detach-and-reattach across connections
 *    and periodic crash-recovery checkpoints.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "engine/registry.hh"
#include "engine/snapshot.hh"
#include "engine/snapshot_io.hh"
#include "netlist/builder.hh"
#include "netlist/parallel_evaluator.hh"
#include "service/protocol.hh"
#include "service/session.hh"

using namespace manticore;
namespace fs = std::filesystem;

namespace {

/** Free-running 32-bit counter, $finish at `horizon`. */
netlist::Netlist
ctr32(uint64_t horizon)
{
    netlist::CircuitBuilder b("ctr32");
    auto c = b.reg("c", 32);
    b.next(c, c.read() + b.lit(32, 1));
    b.finish(c.read() == b.lit(32, horizon));
    return b.build();
}

/** 8-bit accumulator over a free input; never finishes. */
netlist::Netlist
acc8()
{
    netlist::CircuitBuilder b("acc8");
    auto in = b.input("in", 8);
    auto acc = b.reg("acc", 8);
    b.next(acc, acc.read() + in);
    return b.build();
}

service::SchedulerOptions
smallQuantum(uint64_t quantum = 64, unsigned workers = 2)
{
    service::SchedulerOptions o;
    o.numWorkers = workers;
    o.quantumCycles = quantum;
    return o;
}

} // namespace

// ---------------------------------------------------------------------------
// Correctness vs dedicated runs
// ---------------------------------------------------------------------------

TEST(Service, SingleTenantMatchesDedicatedSession)
{
    for (const char *name :
         {"netlist.reference", "netlist.compiled", "netlist.parallel",
          "isa.tape"}) {
        service::Scheduler sched(smallQuantum());
        std::string error;
        auto h = service::SessionHandle::create(sched, name,
                                                ctr32(1u << 20), {},
                                                &error);
        ASSERT_TRUE(h.valid()) << name << ": " << error;
        ASSERT_TRUE(h.submitRun(1000, &error)) << error;
        ASSERT_TRUE(h.wait());

        engine::Session dedicated(ctr32(1u << 20), name);
        dedicated.run(1000);

        service::PollResult p = h.poll();
        EXPECT_EQ(p.cycle, dedicated->cycle()) << name;
        EXPECT_EQ(p.status, dedicated->status()) << name;
        BitVector got;
        ASSERT_TRUE(h.readProbe("c", 0, &got, &error))
            << name << ": " << error;
        EXPECT_EQ(got, dedicated->read(dedicated->probe("c"))) << name;
    }
}

TEST(Service, ThirtyTwoTenantsMatchDedicatedRuns)
{
    // 32 concurrent tenants with tenant-specific stimulus across
    // three engine families on one shared pool; every result must be
    // byte-identical to a dedicated engine run.
    constexpr unsigned kTenants = 32;
    service::Scheduler sched(smallQuantum(64));
    std::vector<service::SessionHandle> handles;
    std::string error;

    for (unsigned t = 0; t < kTenants; ++t) {
        if (t < 24) {
            const char *eng =
                t < 16 ? "netlist.compiled" : "netlist.parallel";
            auto h = service::SessionHandle::create(sched, eng, acc8(),
                                                    {}, &error);
            ASSERT_TRUE(h.valid()) << error;
            // poke -> run -> poke -> run exercises submit ordering.
            ASSERT_TRUE(h.submitPoke("in", service::kAllLanes,
                                     BitVector(8, t + 1), &error))
                << error;
            ASSERT_TRUE(h.submitRun(100 + t, &error)) << error;
            ASSERT_TRUE(h.submitPoke("in", service::kAllLanes,
                                     BitVector(8, 2 * t + 1), &error));
            ASSERT_TRUE(h.submitRun(50, &error)) << error;
            handles.push_back(std::move(h));
        } else {
            auto h = service::SessionHandle::create(
                sched, "isa.tape", ctr32(1u << 20), {}, &error);
            ASSERT_TRUE(h.valid()) << error;
            ASSERT_TRUE(h.submitRun(200 + t, &error)) << error;
            handles.push_back(std::move(h));
        }
    }

    for (unsigned t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(handles[t].wait()) << "tenant " << t;
        service::PollResult p = handles[t].poll();
        ASSERT_EQ(p.phase, service::Phase::Ready) << p.error;

        if (t < 24) {
            auto golden = engine::create(
                t < 16 ? "netlist.compiled" : "netlist.parallel",
                acc8());
            engine::InputHandle in = golden->bindInput("in");
            golden->setInput(in, BitVector(8, t + 1));
            golden->step(100 + t);
            golden->setInput(in, BitVector(8, 2 * t + 1));
            golden->step(50);
            BitVector got;
            ASSERT_TRUE(handles[t].readProbe("acc", 0, &got, &error))
                << error;
            EXPECT_EQ(got, golden->read(golden->probe("acc")))
                << "tenant " << t;
            EXPECT_EQ(p.cycle, golden->cycle()) << "tenant " << t;
        } else {
            BitVector got;
            ASSERT_TRUE(handles[t].readProbe("c", 0, &got, &error))
                << error;
            EXPECT_EQ(got.toUint64(), 200 + t) << "tenant " << t;
            EXPECT_EQ(p.cycle, 200 + t) << "tenant " << t;
        }
        EXPECT_EQ(p.completedRuns, p.submittedRuns) << "tenant " << t;
    }
}

TEST(Service, EnsembleTenantMatchesDedicatedEnsemble)
{
    service::Scheduler sched(smallQuantum());
    engine::CreateOptions options;
    options.lanes = 4;
    std::string error;
    auto h = service::SessionHandle::create(
        sched, "netlist.compiled", acc8(), options, &error);
    ASSERT_TRUE(h.valid()) << error;
    for (unsigned l = 0; l < 4; ++l)
        ASSERT_TRUE(
            h.submitPoke("in", l, BitVector(8, 3 * l + 1), &error))
            << error;
    ASSERT_TRUE(h.submitRun(77, &error)) << error;
    ASSERT_TRUE(h.wait());

    auto golden = engine::create("netlist.compiled", acc8(), options);
    engine::InputHandle in = golden->bindInput("in");
    for (unsigned l = 0; l < 4; ++l)
        golden->setInputLane(in, l, BitVector(8, 3 * l + 1));
    golden->step(77);

    engine::ProbeHandle acc = golden->probe("acc");
    for (unsigned l = 0; l < 4; ++l) {
        BitVector got;
        ASSERT_TRUE(h.readProbe("acc", l, &got, &error)) << error;
        EXPECT_EQ(got, golden->readLane(acc, l)) << "lane " << l;
    }
    std::vector<service::LaneView> lanes = h.laneViews();
    ASSERT_EQ(lanes.size(), 4u);
    for (unsigned l = 0; l < 4; ++l)
        EXPECT_EQ(lanes[l].cycle, 77u);
}

// ---------------------------------------------------------------------------
// Scheduling semantics
// ---------------------------------------------------------------------------

TEST(Service, FairnessBoundOneWorker)
{
    // With ONE worker and R runnable sessions, strict tail re-queue
    // means no session waits more than R quanta between visits.
    constexpr unsigned kSessions = 4;
    std::vector<service::SessionId> trace;
    service::SchedulerOptions o;
    o.numWorkers = 1;
    o.quantumCycles = 64;
    o.quantumTrace = [&](service::SessionId id) {
        trace.push_back(id); // under the scheduler lock
    };
    service::Scheduler sched(o);

    std::vector<service::SessionHandle> handles;
    std::string error;
    for (unsigned i = 0; i < kSessions; ++i) {
        auto h = service::SessionHandle::create(
            sched, "netlist.compiled", ctr32(1u << 20), {}, &error);
        ASSERT_TRUE(h.valid()) << error;
        ASSERT_TRUE(h.wait()); // engine constructed, session idle
        handles.push_back(std::move(h));
    }
    for (auto &h : handles) // all runnable from here on
        ASSERT_TRUE(h.submitRun(64 * 20, &error)) << error;
    for (auto &h : handles)
        ASSERT_TRUE(h.wait());

    // A session is continuously runnable between consecutive RUN
    // quanta (its run still has cycles queued), so those gaps are
    // where the bound must hold.  Its FIRST occurrence is the
    // construction quantum — between that and its first run quantum
    // it had nothing queued (the submits happen later, and a slow
    // submitting thread, e.g. under a sanitizer, legitimately lets
    // earlier sessions drain meanwhile), so that gap is excluded.
    for (unsigned i = 0; i < kSessions; ++i) {
        service::SessionId id = handles[i].id();
        size_t last = 0, visits = 0;
        for (size_t pos = 0; pos < trace.size(); ++pos) {
            if (trace[pos] != id)
                continue;
            ++visits;
            if (visits > 2)
                EXPECT_LE(pos - last, kSessions)
                    << "session " << id << " starved at " << pos;
            if (visits >= 2)
                last = pos;
        }
        EXPECT_EQ(visits, 20u + 1) << "session " << id
                                   << " (20 run + 1 create quanta)";
    }
}

TEST(Service, BackpressureBoundsQueue)
{
    service::SchedulerOptions o = smallQuantum(1u << 20, 1);
    o.maxQueuedPerSession = 3;
    service::Scheduler sched(o);
    std::string error;
    auto h = service::SessionHandle::create(
        sched, "netlist.compiled", ctr32(1u << 30), {}, &error);
    ASSERT_TRUE(h.valid()) << error;
    ASSERT_TRUE(h.wait());

    // A full-quantum run occupies the worker (and one queue slot)
    // for many milliseconds; the submits behind it then fill the
    // bounded queue deterministically.
    ASSERT_TRUE(h.submitRun(1u << 20, &error)) << error;
    unsigned accepted = 0;
    std::string reject;
    for (unsigned i = 0; i < 16; ++i) {
        if (h.submitRun(1, &error))
            ++accepted;
        else
            reject = error;
    }
    EXPECT_LE(accepted, o.maxQueuedPerSession);
    EXPECT_NE(reject.find("backpressure"), std::string::npos) << reject;

    ASSERT_TRUE(h.wait());
    // Drained: submits are accepted again.
    EXPECT_TRUE(h.submitRun(1, &error)) << error;
    service::PollResult p = h.poll();
    EXPECT_GT(p.submittedRuns, 0u);
    auto stats = h.meter();
    bool found = false;
    for (const engine::Stat &s : stats)
        if (s.name == "service.rejected") {
            found = true;
            EXPECT_GT(s.value, 0u);
        }
    EXPECT_TRUE(found);
}

TEST(Service, AdmissionControlCapsSessions)
{
    service::SchedulerOptions o = smallQuantum();
    o.maxSessions = 2;
    service::Scheduler sched(o);
    std::string error;
    auto a = service::SessionHandle::create(sched, "netlist.compiled",
                                            ctr32(1000), {}, &error);
    auto b = service::SessionHandle::create(sched, "netlist.compiled",
                                            ctr32(1000), {}, &error);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    auto c = service::SessionHandle::create(sched, "netlist.compiled",
                                            ctr32(1000), {}, &error);
    EXPECT_FALSE(c.valid());
    EXPECT_NE(error.find("admission"), std::string::npos) << error;

    // Destroying one frees a slot.
    b = service::SessionHandle();
    auto d = service::SessionHandle::create(sched, "netlist.compiled",
                                            ctr32(1000), {}, &error);
    EXPECT_TRUE(d.valid()) << error;
}

TEST(Service, BadTenantInputIsRejectedNotFatal)
{
    service::Scheduler sched(smallQuantum());
    std::string error;

    EXPECT_EQ(sched.createSession("no.such.engine", ctr32(100), {},
                                  &error),
              0u);
    EXPECT_NE(error.find("no such engine"), std::string::npos);

    engine::CreateOptions lanes8;
    lanes8.lanes = 8;
    EXPECT_EQ(sched.createSession("netlist.reference", ctr32(100),
                                  lanes8, &error),
              0u); // no ensemble mode
    engine::CreateOptions lanes32;
    lanes32.lanes = 32;
    EXPECT_EQ(sched.createSession("isa.tape", ctr32(100), lanes32,
                                  &error),
              0u); // beyond the 16-lane isa cap

    auto h = service::SessionHandle::create(sched, "netlist.compiled",
                                            acc8(), {}, &error);
    ASSERT_TRUE(h.valid());
    EXPECT_FALSE(
        h.submitPoke("bogus", 0, BitVector(8, 1), &error));
    EXPECT_NE(error.find("no such input"), std::string::npos);
    EXPECT_FALSE(h.submitPoke("in", 0, BitVector(16, 1), &error));
    EXPECT_NE(error.find("8 bit"), std::string::npos) << error;
    EXPECT_FALSE(h.submitPoke("in", 3, BitVector(8, 1), &error));
    EXPECT_NE(error.find("lane"), std::string::npos) << error;
    // An open design on an input-less engine would fatal() in that
    // engine's compiler — admission must reject it instead.
    EXPECT_EQ(sched.createSession("isa.tape", acc8(), {}, &error), 0u);
    EXPECT_NE(error.find("open designs"), std::string::npos) << error;
    // And on a closed design, poking an input-less engine is an error.
    auto i = service::SessionHandle::create(sched, "isa.tape",
                                            ctr32(100), {}, &error);
    ASSERT_TRUE(i.valid());
    EXPECT_FALSE(i.submitPoke("in", 0, BitVector(8, 1), &error));
    EXPECT_NE(error.find("no free inputs"), std::string::npos) << error;

    // The scheduler survived all of the above.
    EXPECT_TRUE(h.submitRun(10, &error)) << error;
    EXPECT_TRUE(h.wait());
}

TEST(Service, CancelTakesEffectAtQuantumBoundary)
{
    service::Scheduler sched(smallQuantum(128, 1));
    std::string error;
    auto h = service::SessionHandle::create(
        sched, "netlist.compiled", ctr32(1u << 30), {}, &error);
    ASSERT_TRUE(h.valid()) << error;
    ASSERT_TRUE(h.wait());
    ASSERT_TRUE(h.submitRun(1u << 24, &error)) << error; // very long
    EXPECT_TRUE(h.cancel());
    ASSERT_TRUE(h.wait());
    service::PollResult p = h.poll();
    // The run is gone well before completion; whatever ran is a whole
    // number of quanta.
    EXPECT_LT(p.cycle, uint64_t(1) << 24);
    EXPECT_EQ(p.queued, 0u);
    EXPECT_EQ(p.canceledRuns + p.completedRuns, 1u);
    // The session remains usable.
    uint64_t before = p.cycle;
    ASSERT_TRUE(h.submitRun(64, &error)) << error;
    ASSERT_TRUE(h.wait());
    EXPECT_EQ(h.poll().cycle, before + 64);
}

TEST(Service, DestroyWhileRunningIsSafe)
{
    service::Scheduler sched(smallQuantum(1u << 16, 2));
    std::string error;
    for (int round = 0; round < 8; ++round) {
        auto h = service::SessionHandle::create(
            sched, "netlist.compiled", ctr32(1u << 30), {}, &error);
        ASSERT_TRUE(h.valid()) << error;
        ASSERT_TRUE(h.submitRun(1u << 22, &error)) << error;
        // Destroy with the quantum (likely) in flight; the handle
        // destructor is the destroy.
    }
    // Scheduler still serves new work.
    auto h = service::SessionHandle::create(sched, "netlist.compiled",
                                            ctr32(1u << 20), {}, &error);
    ASSERT_TRUE(h.valid()) << error;
    ASSERT_TRUE(h.submitRun(100, &error)) << error;
    ASSERT_TRUE(h.wait());
    EXPECT_EQ(h.poll().cycle, 100u);
    EXPECT_EQ(sched.numSessions(), 1u);
}

TEST(Service, IdleSessionsConsumeNoSchedulerWork)
{
    service::Scheduler sched(smallQuantum(64, 2));
    std::string error;
    std::vector<service::SessionHandle> idle;
    for (int i = 0; i < 16; ++i) {
        auto h = service::SessionHandle::create(
            sched, "netlist.compiled", ctr32(1u << 20), {}, &error);
        ASSERT_TRUE(h.valid()) << error;
        ASSERT_TRUE(h.wait());
        idle.push_back(std::move(h));
    }
    auto quanta = [&] {
        for (const engine::Stat &s : sched.serviceStats())
            if (s.name == "quanta")
                return s.value;
        return uint64_t(0);
    };
    uint64_t before = quanta();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // 16 idle sessions, zero quanta executed: workers are parked on
    // the condvar, not polling.
    EXPECT_EQ(quanta(), before);
}

TEST(Service, SessionEnginesOwnZeroThreads)
{
    // The ownership inversion itself: an engine created for service
    // use must execute entirely on the borrowed scheduler worker.
    // numThreads=1 is what Scheduler::createSession clamps to; pin
    // that this really means an empty owned pool.
    netlist::EvalOptions one;
    one.numThreads = 1;
    netlist::ParallelCompiledEvaluator ev(ctr32(1000), one);
    EXPECT_EQ(ev.ownedThreads(), 0u);
    EXPECT_EQ(ev.numThreads(), 1u);
}

TEST(Service, WaitTimesOut)
{
    service::Scheduler sched(smallQuantum(256, 1));
    std::string error;
    auto h = service::SessionHandle::create(
        sched, "netlist.compiled", ctr32(1u << 30), {}, &error);
    ASSERT_TRUE(h.valid()) << error;
    ASSERT_TRUE(h.submitRun(1u << 26, &error)) << error;
    EXPECT_FALSE(h.wait(30)); // 30 ms is not enough for 64M cycles
    h.cancel();
    EXPECT_TRUE(h.wait());
}

TEST(Service, RunToAbsoluteCycle)
{
    service::Scheduler sched(smallQuantum(64, 1));
    std::string error;
    auto h = service::SessionHandle::create(
        sched, "netlist.compiled", ctr32(1u << 20), {}, &error);
    ASSERT_TRUE(h.valid()) << error;
    ASSERT_TRUE(h.submitRunTo(500, &error)) << error;
    ASSERT_TRUE(h.wait());
    EXPECT_EQ(h.poll().cycle, 500u);
    // An already-satisfied target completes immediately.
    ASSERT_TRUE(h.submitRunTo(100, &error)) << error;
    ASSERT_TRUE(h.wait());
    EXPECT_EQ(h.poll().cycle, 500u);
    EXPECT_EQ(h.poll().completedRuns, 2u);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan targets)
// ---------------------------------------------------------------------------

TEST(ServiceStress, TenantsSubmitPollCancelConcurrently)
{
    service::Scheduler sched(smallQuantum(64, 2));
    constexpr unsigned kThreads = 8, kRounds = 6;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> tenants;
    for (unsigned t = 0; t < kThreads; ++t) {
        tenants.emplace_back([&, t] {
            for (unsigned round = 0; round < kRounds; ++round) {
                std::string error;
                auto h = service::SessionHandle::create(
                    sched, "netlist.compiled", acc8(), {}, &error);
                if (!h.valid()) {
                    ++failures;
                    return;
                }
                h.submitPoke("in", service::kAllLanes,
                             BitVector(8, t + 1), &error);
                h.submitRun(300 + 17 * t, &error);
                h.poll();
                if (round % 3 == 1)
                    h.cancel();
                if (round % 3 == 2) {
                    h.wait();
                    BitVector v;
                    if (!h.readProbe("acc", 0, &v, &error))
                        ++failures;
                    uint64_t want =
                        ((300 + 17 * t) * (t + 1)) & 0xff;
                    if (v.toUint64() != want)
                        ++failures;
                }
                h.meter();
                h.laneViews();
                // handle dtor destroys, sometimes mid-quantum
            }
        });
    }
    for (std::thread &t : tenants)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(sched.numSessions(), 0u);
}

TEST(ServiceStress, ConcurrentEngineCreateIsSafe)
{
    // The registry thread-safety satellite: first-touch registration
    // and create() racing from many threads.
    constexpr unsigned kThreads = 8;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const char *name =
                t % 2 ? "netlist.compiled" : "isa.tape";
            for (int i = 0; i < 4; ++i) {
                auto eng = engine::create(name, ctr32(1u << 20));
                if (eng->step(50).cycles != 50)
                    ++failures;
                if (!engine::find(name))
                    ++failures;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
}

// ---------------------------------------------------------------------------
// Periodic checkpointing (crash recovery)
// ---------------------------------------------------------------------------

TEST(Service, PeriodicCheckpointsAreRestorable)
{
    fs::path dir = fs::temp_directory_path() /
                   ("manticore_service_ckpt_test_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    service::SchedulerOptions o = smallQuantum(128, 1);
    o.checkpointEveryCycles = 512;
    o.checkpointDir = dir.string();
    service::Scheduler sched(o);
    std::string error;
    auto h = service::SessionHandle::create(
        sched, "netlist.compiled", ctr32(1u << 20), {}, &error);
    ASSERT_TRUE(h.valid()) << error;
    ASSERT_TRUE(h.submitRun(3000, &error)) << error;
    ASSERT_TRUE(h.wait());

    fs::path file =
        dir / ("session-" + std::to_string(h.id()) + ".mtsnap");
    ASSERT_TRUE(fs::exists(file)) << file;
    bool counted = false;
    for (const engine::Stat &s : h.meter())
        if (s.name == "service.checkpoints") {
            counted = true;
            EXPECT_GE(s.value, 1u);
        }
    EXPECT_TRUE(counted);

    // Crash recovery: a fresh engine restored from the periodic
    // checkpoint resumes mid-run with consistent state.
    engine::Snapshot snap = engine::readSnapshotFile(file.string());
    EXPECT_GE(snap.cycle, 512u);
    EXPECT_LE(snap.cycle, 3000u);
    auto resumed = engine::create("netlist.compiled", ctr32(1u << 20));
    resumed->restore(snap);
    EXPECT_EQ(resumed->cycle(), snap.cycle);
    EXPECT_EQ(resumed->read(resumed->probe("c")).toUint64(),
              snap.cycle);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

namespace {

/** In-process client/server pair over a socketpair: full protocol
 *  coverage without binary-path coupling, and the server code runs
 *  under the test's sanitizer. */
struct ProtoFixture
{
    service::Scheduler sched;
    std::atomic<bool> stop{false};
    service::Server server;
    service::Client client;
    std::thread thread;

    explicit ProtoFixture(std::string save_dir = "")
        : sched(smallQuantum(256, 2)), server(sched, &stop)
    {
        // Before connect(): the connection thread reads the save dir,
        // so it must be set before that thread exists.
        if (!save_dir.empty())
            server.setSaveDir(std::move(save_dir));
        connect();
    }

    void
    connect()
    {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        thread = std::thread(
            [this, fd = fds[0]] { server.serveConnection(fd); });
        client.adopt(fds[1]);
    }

    void
    reconnect()
    {
        client.request("quit");
        client.close();
        thread.join();
        connect();
    }

    ~ProtoFixture()
    {
        if (client.connected())
            client.request("quit");
        client.close();
        if (thread.joinable())
            thread.join();
    }
};

} // namespace

TEST(ServiceProtocol, EndToEndSession)
{
    ProtoFixture fx;
    std::string detail;
    ASSERT_TRUE(fx.client.hello(&detail));
    EXPECT_NE(detail.find("proto=1"), std::string::npos) << detail;

    // Catalog listings round-trip.
    EXPECT_GE(fx.client.request("designs").lines.size(), 11u);
    EXPECT_EQ(fx.client.request("engines").lines.size(),
              engine::list().size());

    std::string error;
    service::SessionId id = fx.client.newSession(
        "acc8", "netlist.compiled", 1, 0, &error);
    ASSERT_NE(id, 0u) << error;
    ASSERT_TRUE(
        fx.client.poke(id, "in", service::kAllLanes,
                       BitVector(8, 5), &error))
        << error;
    ASSERT_TRUE(fx.client.run(id, 60, &error)) << error;
    ASSERT_TRUE(fx.client.wait(id));

    service::Client::Poll p = fx.client.poll(id);
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.cycle, 60u);
    EXPECT_EQ(p.phase, "ready");
    EXPECT_EQ(p.done, 1u);

    BitVector v;
    ASSERT_TRUE(fx.client.probe(id, "acc", 0, &v, &error)) << error;
    EXPECT_EQ(v.toUint64(), (60 * 5) & 0xff);
    EXPECT_EQ(v.width(), 8u);

    auto meter = fx.client.meter(id);
    bool saw_cycles = false;
    for (const auto &kv : meter)
        if (kv.first == "service.cycles") {
            saw_cycles = true;
            EXPECT_EQ(kv.second, 60u);
        }
    EXPECT_TRUE(saw_cycles);

    // A self-checking design's transcript comes through the log.
    service::SessionId mm = fx.client.newSession(
        "mm", "netlist.compiled", 1, 0, &error);
    ASSERT_NE(mm, 0u) << error;
    ASSERT_TRUE(fx.client.run(mm, 1000, &error)) << error;
    ASSERT_TRUE(fx.client.wait(mm));
    EXPECT_EQ(fx.client.poll(mm).status, "finished");
    std::vector<std::string> log = fx.client.displayLog(mm, 0);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_NE(log[0].find("checksum"), std::string::npos) << log[0];

    EXPECT_TRUE(fx.client.destroy(id));
    EXPECT_TRUE(fx.client.destroy(mm));
    EXPECT_EQ(fx.sched.numSessions(), 0u);
}

TEST(ServiceProtocol, ErrorsAreRepliesNotDeaths)
{
    ProtoFixture fx;
    auto expectErr = [&](const std::string &req,
                         const std::string &needle) {
        service::Client::Reply r = fx.client.request(req);
        EXPECT_FALSE(r.ok) << req;
        EXPECT_NE(r.detail.find(needle), std::string::npos)
            << req << " -> " << r.detail;
    };
    expectErr("frobnicate", "unknown command");
    expectErr("new nope netlist.compiled", "no such design");
    expectErr("new ctr32 nope", "no such engine");
    expectErr("new ctr32 netlist.reference 8", "ensemble");
    expectErr("run 999 100", "no such session");
    expectErr("run abc 100", "session id");
    expectErr("poll 999", "no such session");
    expectErr("probe 999 c 0", "no such session");

    std::string error;
    service::SessionId id = fx.client.newSession(
        "acc8", "netlist.compiled", 1, 0, &error);
    ASSERT_NE(id, 0u) << error;
    std::string sid = std::to_string(id);
    expectErr("poke " + sid + " bogus 0 00", "no such input");
    expectErr("poke " + sid + " in 0 zz", "bad value");
    expectErr("poke " + sid + " in 0 123", "bad value"); // 3 digits
    expectErr("probe " + sid + " bogus 0", "no such signal");
    expectErr("probe " + sid + " acc 7", "lane");

    // Numeric hardening: strtoull would accept "-1" (wrapping to
    // 2^64-1) and narrowing to unsigned would wrap 2^32+1 to 1 and
    // alias lane 4294967295 to the kAllLanes broadcast wildcard.
    expectErr("run " + sid + " -1", "cycle count");
    expectErr("new ctr32 netlist.compiled 4294967297", "lane count");
    expectErr("new ctr32 netlist.compiled +2", "lane count");
    expectErr("poke " + sid + " in 4294967295 05", "bad lane");
    expectErr("probe " + sid + " acc 4294967295", "probe");

    // A tenant-named unwritable save path is an err reply, not a
    // dead daemon (writeSnapshotFile's fatal() path must be unused
    // here).
    expectErr("save " + sid + " /manticore-no-such-dir/x.mtsnap",
              "cannot write");

    // After all that abuse, the session still works.
    ASSERT_TRUE(fx.client.run(id, 10, &error)) << error;
    ASSERT_TRUE(fx.client.wait(id));
    EXPECT_EQ(fx.client.poll(id).cycle, 10u);
}

TEST(ServiceProtocol, DetachSurvivesConnectionDeath)
{
    ProtoFixture fx;
    std::string error;
    service::SessionId kept = fx.client.newSession(
        "ctr32", "netlist.compiled", 1, 1u << 20, &error);
    ASSERT_NE(kept, 0u) << error;
    service::SessionId dropped = fx.client.newSession(
        "ctr32", "netlist.compiled", 1, 1u << 20, &error);
    ASSERT_NE(dropped, 0u) << error;

    // Detach one with a long run still in flight.
    ASSERT_TRUE(fx.client.run(kept, 1u << 18, &error)) << error;
    ASSERT_TRUE(fx.client.detach(kept));
    fx.reconnect(); // old connection's owned sessions die with it

    EXPECT_EQ(fx.sched.numSessions(), 1u);
    service::Client::Poll p = fx.client.poll(kept);
    EXPECT_TRUE(p.ok); // detached session survived, and is pollable
    EXPECT_FALSE(fx.client.poll(dropped).ok);
    ASSERT_TRUE(fx.client.wait(kept));
    EXPECT_EQ(fx.client.poll(kept).cycle, uint64_t(1) << 18);
    EXPECT_TRUE(fx.client.destroy(kept));
}

TEST(ServiceProtocol, ValueEncodingRoundTrips)
{
    for (unsigned width : {1u, 4u, 7u, 8u, 17u, 64u, 65u, 130u}) {
        BitVector v = BitVector::ones(width);
        std::string hex = service::bitsToHex(v);
        EXPECT_EQ(hex.size(), (width + 3) / 4);
        BitVector back;
        ASSERT_TRUE(service::hexToBits(hex, width, &back)) << width;
        EXPECT_EQ(back, v) << width;

        std::string token = service::formatValue(v);
        BitVector parsed;
        ASSERT_TRUE(service::parseValue(token, &parsed)) << token;
        EXPECT_EQ(parsed, v) << token;
    }
    BitVector out;
    EXPECT_FALSE(service::hexToBits("f", 3, &out));  // 7 > 3 bits
    EXPECT_FALSE(service::hexToBits("ff", 4, &out)); // digit count
    EXPECT_FALSE(service::hexToBits("g", 4, &out));  // not hex
    EXPECT_TRUE(service::hexToBits("7", 3, &out));
    EXPECT_EQ(out.toUint64(), 7u);
}

TEST(ServiceProtocol, SaveDirConfinesTenantPaths)
{
    fs::path dir = fs::temp_directory_path() /
                   ("manticore_service_savedir_test_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    ProtoFixture fx(dir.string());
    std::string error;
    service::SessionId id = fx.client.newSession(
        "ctr32", "netlist.compiled", 1, 1u << 20, &error);
    ASSERT_NE(id, 0u) << error;
    ASSERT_TRUE(fx.client.run(id, 100, &error)) << error;
    ASSERT_TRUE(fx.client.wait(id));
    std::string sid = std::to_string(id);

    // Directory components cannot steer the daemon's write outside
    // the configured directory.
    for (const char *evil : {"../evil.mtsnap", "/tmp/evil.mtsnap",
                             "a/b.mtsnap", "..", "."}) {
        service::Client::Reply r =
            fx.client.request("save " + sid + " " + evil);
        EXPECT_FALSE(r.ok) << evil;
        EXPECT_NE(r.detail.find("plain filenames"), std::string::npos)
            << evil << " -> " << r.detail;
    }

    service::Client::Reply r =
        fx.client.request("save " + sid + " good.mtsnap");
    ASSERT_TRUE(r.ok) << r.detail;
    fs::path file = dir / "good.mtsnap";
    ASSERT_TRUE(fs::exists(file)) << file;
    EXPECT_EQ(engine::readSnapshotFile(file.string()).cycle, 100u);
    fs::remove_all(dir);
}

TEST(Service, CheckpointFailureDegradesInsteadOfDying)
{
    fs::path dir = fs::temp_directory_path() /
                   ("manticore_service_ckpt_degrade_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    service::SchedulerOptions o = smallQuantum(128, 1);
    o.checkpointEveryCycles = 512;
    o.checkpointDir = dir.string();
    service::Scheduler sched(o); // creates the directory...
    fs::remove_all(dir);         // ...which then vanishes at runtime
    std::string error;
    auto h = service::SessionHandle::create(
        sched, "netlist.compiled", ctr32(1u << 20), {}, &error);
    ASSERT_TRUE(h.valid()) << error;
    ASSERT_TRUE(h.submitRun(3000, &error)) << error;
    ASSERT_TRUE(h.wait());
    service::PollResult p = h.poll();
    // The run completed despite every checkpoint write failing, and
    // the failure is visible rather than fatal.
    EXPECT_EQ(p.cycle, 3000u);
    EXPECT_NE(p.error.find("checkpoint"), std::string::npos) << p.error;
    // The scheduler still takes new work afterwards.
    ASSERT_TRUE(h.submitRun(100, &error)) << error;
    ASSERT_TRUE(h.wait());
    EXPECT_EQ(h.poll().cycle, 3100u);
}
