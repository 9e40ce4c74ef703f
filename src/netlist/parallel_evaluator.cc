#include "netlist/parallel_evaluator.hh"

#include <algorithm>
#include <exception>
#include <unordered_map>

#include "support/limbops.hh"
#include "support/logging.hh"

namespace manticore::netlist {

namespace lo = ::manticore::limbops;

namespace {

constexpr uint32_t kNoSlot = ~0u;

/** The rendezvous' one wait: until the monotonic `counter` reaches
 *  `target`.  Spin-then-yield keeps oversubscribed (or single-core)
 *  hosts making progress, as in baseline's worker pool. */
void
waitFor(const std::atomic<uint64_t> &counter, uint64_t target)
{
    unsigned spins = 0;
    while (counter.load(std::memory_order_acquire) < target) {
        if (++spins > 256) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

} // namespace

ParallelCompiledEvaluator::ParallelCompiledEvaluator(
    Netlist netlist, const EvalOptions &options)
    : ParallelCompiledEvaluator(std::move(netlist), options, kTapeSyncCost)
{
}

ParallelCompiledEvaluator::ParallelCompiledEvaluator(
    Netlist netlist, const EvalOptions &options, size_t sync_cost)
    : CompiledEvaluator(std::move(netlist), options, Unlowered{}),
      _bank{exec::Arena(_padded), exec::Arena(_padded)}
{
    unsigned hw = std::thread::hardware_concurrency();
    _numThreads = options.numThreads != 0 ? options.numThreads
                                          : std::max(1u, hw);
    NetlistPartition part = partitionNetlist(
        _netlist, _numThreads, options.mergeAlgo, sync_cost / _padded);
    _stats = part.stats;
    if (part.processes.size() <= 1) {
        // Nothing to synchronise: the serial engine's lowering and
        // step are the whole engine.
        compile();
        return;
    }
    for (Decision *d : {&_start, &_decision[0], &_decision[1]}) {
        d->commit.assign(_lanes, 0);
        d->finish.assign(_lanes, 0);
    }
    _frozenBank.assign(_lanes, 0);
    compileProcesses(part);
    for (size_t p = 1; p < _procs.size(); ++p)
        _pool.emplace_back([this, p] { workerLoop(p); });
}

ParallelCompiledEvaluator::~ParallelCompiledEvaluator()
{
    // Workers always park at the batch rendezvous between steps;
    // bumping its generation with _shutdown set releases them.
    _shutdown.store(true, std::memory_order_relaxed);
    _computeGen.fetch_add(1, std::memory_order_release);
    for (std::thread &t : _pool)
        t.join();
}

void
ParallelCompiledEvaluator::compileProcesses(NetlistPartition &part)
{
    _mems = tape::buildMemStates(_netlist, _padded);

    // The master runs process 0, so the effects process goes there:
    // the master then fires the side effects and publishes the
    // Vcycle's decision right after its own compute.
    for (size_t p = 1; p < part.processes.size(); ++p)
        if (part.processes[p].effects)
            std::swap(part.processes[0], part.processes[p]);

    const auto &nodes = _netlist.nodes();
    exec::Arena &arena = _bank[0];

    // Shared source region: constants and inputs, written only at
    // build time / between steps.
    _sourceSlot.assign(nodes.size(), kNoSlot);
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].kind == OpKind::Const ||
            nodes[i].kind == OpKind::Input)
            _sourceSlot[i] = arena.alloc(nodes[i].width);
    }

    // Shared register file, grouped by owning process and cache-line
    // aligned per group: within a Vcycle, only the owner writes a
    // register, and only in the bank the cycle does not read.
    _regSlot.assign(_netlist.numRegisters(), kNoSlot);
    for (const NetlistProcess &proc : part.processes) {
        arena.align();
        for (RegId r : proc.registers) {
            MANTICORE_ASSERT(_regSlot[r] == kNoSlot,
                             "register owned by two processes");
            _regSlot[r] = arena.alloc(_netlist.reg(r).width);
        }
    }
    for (size_t r = 0; r < _netlist.numRegisters(); ++r)
        MANTICORE_ASSERT(_regSlot[r] != kNoSlot, "unowned register");

    // Per-process private regions: cone node slots, then staging for
    // RegRead-sourced memory-write operands.  Lowering happens in the
    // same sweep — node ids are topologically ordered and cones are
    // operand-closed, so every operand slot is resolvable by the time
    // it is needed.
    std::unordered_map<NodeId, uint32_t> effects_local;
    _procs.resize(part.processes.size());
    for (size_t p = 0; p < part.processes.size(); ++p) {
        const NetlistProcess &src = part.processes[p];
        Proc &proc = _procs[p];
        arena.align();

        std::unordered_map<NodeId, uint32_t> local;
        local.reserve(src.nodes.size() * 2);
        for (NodeId id : src.nodes)
            local[id] = arena.alloc(nodes[id].width);

        auto resolve = [&](NodeId id) -> uint32_t {
            const Node &n = _netlist.node(id);
            if (n.kind == OpKind::RegRead)
                return _regSlot[n.regId];
            if (n.kind == OpKind::Const || n.kind == OpKind::Input)
                return _sourceSlot[id];
            auto it = local.find(id);
            MANTICORE_ASSERT(it != local.end(),
                             "operand escapes its process cone");
            return it->second;
        };

        proc.tape.reserve(src.nodes.size());
        for (NodeId id : src.nodes) {
            const Node &n = _netlist.node(id);
            uint32_t a = n.operands.size() > 0 ? resolve(n.operands[0]) : 0;
            uint32_t b = n.operands.size() > 1 ? resolve(n.operands[1]) : 0;
            uint32_t c = n.operands.size() > 2 ? resolve(n.operands[2]) : 0;
            proc.tape.push_back(
                tape::lower(_netlist, id, local[id], a, b, c, _mems));
        }

        // Register sends read the current bank, whose register file
        // nobody writes during the Vcycle, so they read any operand
        // in place.
        for (RegId r : src.registers) {
            const Register &reg = _netlist.reg(r);
            proc.regCommits.push_back({_regSlot[r], resolve(reg.next),
                                       lo::nlimbs(reg.width)});
        }

        // Memory writes are applied after the barrier, so operands
        // that live in the shared register file are staged into the
        // private region before it; everything else (private slots,
        // stable constants/inputs) is read in place.
        std::unordered_map<NodeId, uint32_t> staged;
        auto writeSlot = [&](NodeId id) -> uint32_t {
            const Node &n = _netlist.node(id);
            if (n.kind != OpKind::RegRead)
                return resolve(id);
            auto it = staged.find(id);
            if (it != staged.end())
                return it->second;
            uint32_t slot = arena.alloc(n.width);
            staged.emplace(id, slot);
            proc.stages.push_back({slot, _regSlot[n.regId],
                                   lo::nlimbs(n.width) * _lanes});
            return slot;
        };
        for (uint32_t w : src.memWrites) {
            const MemWrite &mw = _netlist.memWrites()[w];
            proc.memCommits.push_back(
                {mw.mem, writeSlot(mw.addr), writeSlot(mw.data),
                 writeSlot(mw.enable),
                 lo::nlimbs(_netlist.node(mw.addr).width)});
        }

        if (src.effects)
            effects_local = std::move(local);
    }

    // Side effects, resolved against process 0's region (or shared
    // slots); the master fires them per lane before it arrives.
    bool have_effects = !_netlist.asserts().empty() ||
                        !_netlist.displays().empty() ||
                        !_netlist.finishes().empty();
    if (have_effects) {
        MANTICORE_ASSERT(part.processes[0].effects,
                         "effects cone unassigned");
        _effects = tape::Effects::compile(
            _netlist, [&](NodeId id) -> uint32_t {
                const Node &n = _netlist.node(id);
                if (n.kind == OpKind::RegRead)
                    return _regSlot[n.regId];
                if (n.kind == OpKind::Const || n.kind == OpKind::Input)
                    return _sourceSlot[id];
                auto it = effects_local.find(id);
                MANTICORE_ASSERT(it != effects_local.end(),
                                 "effect node outside effects cone");
                return it->second;
            });
    }

    arena.seal();

    for (size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].kind == OpKind::Const)
            arena.broadcast(_sourceSlot[i], nodes[i].value);
    for (size_t r = 0; r < _netlist.numRegisters(); ++r)
        arena.broadcast(_regSlot[r],
                        _netlist.reg(static_cast<RegId>(r)).init);
    _bank[1] = arena; // same layout, same constants and init
}

void
ParallelCompiledEvaluator::computeTape(size_t proc_index, uint64_t *A)
{
    tape::run(_procs[proc_index].tape, A, _mems, _padded);
}

void
ParallelCompiledEvaluator::computeAndSend(size_t p, uint64_t *A,
                                          uint64_t *next,
                                          const Decision &active)
{
    // Tape evaluation goes through the computeTape() hook so the AOT
    // subclass can dispatch a per-partition compiled cycle function;
    // the stage copies and sends below are part of the protocol.
    computeTape(p, A);
    const Proc &proc = _procs[p];
    // Staged blocks and their register-file sources are both
    // lane-strided with the same per-lane limb count, so one copy
    // (s.limbs spans every lane) moves the whole block.
    for (const StageCopy &s : proc.stages)
        lo::copy(A + s.dst, A + s.src, s.limbs);
    if (active.allActive) {
        // Every lane is live (always true at one lane): the src and
        // dst blocks are lane-strided with the same stride, so one
        // copy per register moves every lane.
        for (const RegCommit &rc : proc.regCommits)
            lo::copy(next + rc.dst, A + rc.src, rc.limbs * _lanes);
        return;
    }
    // A frozen lane is never written again, in either bank.
    for (const RegCommit &rc : proc.regCommits)
        for (unsigned l = 0; l < _lanes; ++l)
            if (active.commit[l] && !active.finish[l])
                lo::copy(next + rc.dst + static_cast<size_t>(l) * rc.limbs,
                         A + rc.src + static_cast<size_t>(l) * rc.limbs,
                         rc.limbs);
}

void
ParallelCompiledEvaluator::applyWrites(const Proc &proc, const uint64_t *A,
                                       const Decision &d)
{
    // Memory writes read only private or staged slots of bank A, so
    // their order against other processes is free; memories written
    // here are read and written by this process alone (partition.hh).
    for (const MemCommit &w : proc.memCommits) {
        tape::MemState &m = _mems[w.mem];
        for (unsigned l = 0; l < _lanes; ++l) {
            if (!d.commit[l] || !A[w.enable + l])
                continue;
            uint64_t addr =
                A[w.addr + static_cast<size_t>(l) * w.addrStride] %
                m.depth;
            lo::copy(m.word(addr, l),
                     A + w.data + static_cast<size_t>(l) * m.wordLimbs,
                     m.wordLimbs);
        }
    }
}

tape::Effects::FireResult
ParallelCompiledEvaluator::decide(Decision &d, const uint64_t *A,
                                  uint64_t left)
{
    // Fire side effects per active lane, in lane order and in netlist
    // order within a lane — a failed assert suppresses that lane's
    // displays, $finish and commit, like the serial engines.  If
    // firing throws (a throwing onDisplay callback, allocation
    // failure while formatting), the barrier must still complete or
    // the workers stay parked at it and the next step() deadlocks;
    // the whole ensemble cycle is then neither committed nor counted
    // (and every lane's display log rolled back), so a caller that
    // catches can retry it — though an external onDisplay sink may
    // see already-delivered lines again, and a lane whose assert
    // failed before the throw keeps that status (its failing cycle
    // never commits).
    tape::Effects::FireResult fired =
        _effects.fireLanes(A, _lanes, _lane.data(), d.commit.data(),
                           d.finish.data(), onDisplay);
    unsigned next_active = fired.committing - fired.finishing;
    d.allActive = next_active == _lanes;
    d.more = left > 1 && next_active > 0 && !fired.thrown;
    return fired;
}

void
ParallelCompiledEvaluator::arrive(uint64_t target)
{
    _arrivals.fetch_add(1, std::memory_order_release);
    waitFor(_arrivals, target);
}

/* Batch protocol.  A run()/step() call issues ONE pool command: the
 * master publishes the arrival baseline, the Vcycle sequence number
 * and the lanes active at batch start (_start), then bumps
 * _computeGen, and every worker enters its batch loop.  Vcycle k of
 * the batch computes on bank cur = k % 2:
 *
 *   worker: compute on cur; stage memory-write operands; send owned
 *           registers (for the lanes active this Vcycle) into cur^1;
 *           arrive and wait for everyone; read the decision slot of
 *           the Vcycle's sequence parity; if the batch ends, park
 *           (the master applies the pending writes); else apply own
 *           memory writes of Vcycle k and roll into Vcycle k+1
 *   master: compute, stage and send process 0 like a worker; fire
 *           effects on cur and fill the decision slot; arrive and
 *           wait; advance lane state; apply process 0's writes (or
 *           every process's at batch end)
 *
 * The barrier is the monotonic _arrivals counter: every participant
 * — master included — bumps it once per Vcycle and waits for its
 * own running target (baseline + participants x Vcycles), which is
 * what makes the reset-free roll-over safe.  Nothing in a Vcycle
 * waits on another process before the barrier: bank cur's register
 * file is read-only for the whole Vcycle and bank cur^1's is written
 * only by each register's owner.  A memory, if written at all, is
 * read and written by its owner alone, which applies Vcycle k's
 * writes before it computes Vcycle k+1.  The master writes the
 * decision slot of Vcycle s before its arrival at barrier s and next
 * rewrites it for Vcycle s+2, after barrier s+1 — which needs every
 * reader's arrival, and a worker's last read of slot s (as Vcycle
 * s+1's active mask) precedes it. */
void
ParallelCompiledEvaluator::workerLoop(size_t proc_index)
{
    const uint64_t participants = _procs.size();
    const Proc &proc = _procs[proc_index];
    // Every worker takes part in every batch, and the master bumps
    // _computeGen once per batch (and once to shut down), so the
    // worker's n-th batch starts at the n-th bump.
    uint64_t batches = 0;
    while (true) {
        waitFor(_computeGen, ++batches);
        if (_shutdown.load(std::memory_order_relaxed))
            return;
        uint64_t target = _batchArrivals;
        uint64_t seq = _batchSeq;
        uint64_t *bank[2] = {_bank[0].data(), _bank[1].data()};
        const Decision *active = &_start;
        for (unsigned cur = 0;; cur ^= 1, ++seq) {
            computeAndSend(proc_index, bank[cur], bank[cur ^ 1], *active);
            arrive(target += participants);
            const Decision &d = _decision[seq & 1];
            if (!d.more)
                break; // park at the next batch's rendezvous
            applyWrites(proc, bank[cur], d);
            active = &d;
        }
    }
}

SimStatus
ParallelCompiledEvaluator::run(uint64_t max_cycles)
{
    return serial() ? CompiledEvaluator::run(max_cycles)
                    : runBatch(max_cycles);
}

SimStatus
ParallelCompiledEvaluator::runBatch(uint64_t max_cycles)
{
    if (_active == 0 || max_cycles == 0)
        return _lane[0].status;

    const uint64_t participants = _pool.size() + 1;
    uint64_t *bank[2] = {_bank[0].data(), _bank[1].data()};

    // One pool command for the whole batch: workers enter their batch
    // loop and compute Vcycle 0 on bank 0; the master runs process 0
    // inline.
    for (unsigned l = 0; l < _lanes; ++l)
        _start.commit[l] = _lane[l].status == SimStatus::Ok;
    _start.allActive = _active == _lanes;
    _batchArrivals = _arrivals.load(std::memory_order_relaxed);
    _batchSeq = _seq;
    _computeGen.fetch_add(1, std::memory_order_release);

    uint64_t target = _batchArrivals;
    const Decision *active = &_start;
    unsigned cur = 0;
    tape::Effects::FireResult fired;
    for (uint64_t left = max_cycles;; --left) {
        Decision &d = _decision[_seq++ & 1];
        computeAndSend(0, bank[cur], bank[cur ^ 1], *active);
        fired = decide(d, bank[cur], left);
        arrive(target += participants);

        // Barrier passed: every send of this Vcycle is in bank cur^1.
        bool advanced = false;
        for (unsigned l = 0; l < _lanes; ++l) {
            if (!active->commit[l] || active->finish[l])
                continue; // frozen before this Vcycle
            if (d.commit[l]) {
                ++_lane[l].cycle;
                advanced = true;
                if (d.finish[l]) {
                    _lane[l].status = SimStatus::Finished;
                    _frozenBank[l] = cur ^ 1;
                }
            } else if (_lane[l].status != SimStatus::Ok) {
                _frozenBank[l] = cur; // its failing cycle never commits
            }
        }
        if (advanced)
            ++_cycle;
        if (!d.more) {
            // The batch's pending memory writes; the workers are done
            // with this batch's arena and memories.
            for (const Proc &proc : _procs)
                applyWrites(proc, bank[cur], d);
            break;
        }
        applyWrites(_procs[0], bank[cur], d);
        active = &d;
        cur ^= 1;
    }

    // Hand the state back in bank 0: the live lanes are wherever the
    // last Vcycle left them, and a lane that froze during this batch
    // is mirrored into the other bank once, so the swap (and any later
    // one) keeps it whole.
    for (unsigned l = 0; l < _lanes; ++l) {
        if (!_start.commit[l] || _lane[l].status == SimStatus::Ok)
            continue;
        const exec::Arena &from = _bank[_frozenBank[l]];
        exec::Arena &to = _bank[_frozenBank[l] ^ 1];
        for (size_t r = 0; r < _regSlot.size(); ++r) {
            unsigned width = _netlist.reg(static_cast<RegId>(r)).width;
            lo::copy(to.at(_regSlot[r], width, l),
                     from.at(_regSlot[r], width, l), lo::nlimbs(width));
        }
    }
    if ((fired.committing != 0 ? cur ^ 1 : cur) == 1)
        std::swap(_bank[0], _bank[1]);
    recountActive();
    if (fired.thrown)
        std::rethrow_exception(fired.thrown);
    return _lane[0].status;
}

void
ParallelCompiledEvaluator::driveInput(NodeId input, const BitVector &value)
{
    if (serial())
        return CompiledEvaluator::driveInput(input, value);
    checkDriveTarget(input, value);
    for (exec::Arena &bank : _bank)
        bank.broadcast(_sourceSlot[input], value);
}

void
ParallelCompiledEvaluator::driveInputLane(unsigned lane, NodeId input,
                                          const BitVector &value)
{
    if (serial())
        return CompiledEvaluator::driveInputLane(lane, input, value);
    checkDriveTarget(input, value);
    for (exec::Arena &bank : _bank)
        bank.write(_sourceSlot[input], lane, value);
}

BitVector
ParallelCompiledEvaluator::regValueLane(unsigned lane, RegId id) const
{
    if (serial())
        return CompiledEvaluator::regValueLane(lane, id);
    MANTICORE_ASSERT(id < _netlist.numRegisters(), "bad register id");
    return _bank[0].read(_regSlot[id], _netlist.reg(id).width, lane);
}

std::vector<uint32_t>
ParallelCompiledEvaluator::procLiveOutSlots(size_t p) const
{
    if (serial())
        return liveOutSlots();
    // The effects are resolved against process 0's region.
    std::vector<uint32_t> slots;
    if (p == 0)
        slots = _effects.operandSlots();
    for (const RegCommit &rc : _procs[p].regCommits)
        slots.push_back(rc.src);
    for (const MemCommit &w : _procs[p].memCommits)
        slots.insert(slots.end(), {w.addr, w.data, w.enable});
    return slots;
}

size_t
ParallelCompiledEvaluator::tapeLength() const
{
    size_t n = _tape.size(); // the serial tape; empty with processes
    for (const Proc &p : _procs)
        n += p.tape.size();
    return n;
}

// ---- checkpoint/restore hooks (see EvaluatorBase::saveLaneState) ----
// All called from the master thread between step()/run() calls, when
// the workers are parked on _computeGen: both banks, the memory
// images and lane state are master-owned at that point, and bank 0
// is canonical.  The memory words and lane state are restored by the
// base class.

BitVector
ParallelCompiledEvaluator::inputValueLane(unsigned lane,
                                          NodeId input) const
{
    if (serial())
        return CompiledEvaluator::inputValueLane(lane, input);
    return _bank[0].read(_sourceSlot[input], _netlist.node(input).width,
                         lane);
}

void
ParallelCompiledEvaluator::restoreReg(unsigned lane, RegId id,
                                      const BitVector &value)
{
    if (serial())
        return CompiledEvaluator::restoreReg(lane, id, value);
    // Both banks, so a restored frozen lane is mirrored like any
    // other frozen lane.
    for (exec::Arena &bank : _bank)
        bank.write(_regSlot[id], lane, value);
}

} // namespace manticore::netlist
