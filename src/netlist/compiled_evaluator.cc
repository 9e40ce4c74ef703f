#include "netlist/compiled_evaluator.hh"

#include <algorithm>
#include <cstring>

#include "support/limbops.hh"
#include "support/logging.hh"

namespace manticore::netlist {

namespace lo = ::manticore::limbops;

CompiledEvaluator::CompiledEvaluator(Netlist netlist,
                                     const EvalOptions &options)
    : CompiledEvaluator(std::move(netlist), options, Unlowered{})
{
    compile();
}

CompiledEvaluator::CompiledEvaluator(Netlist netlist,
                                     const EvalOptions &options, Unlowered)
    : _netlist(std::move(netlist)), _lanes(options.lanes),
      _padded(exec::paddedLaneCount(options.lanes)), _arena(_padded)
{
    MANTICORE_ASSERT(_lanes >= 1, "ensemble needs at least one lane");
    _netlist.validate();
    _active = _lanes;
    _lane.resize(_lanes);
    _laneCommit.assign(_lanes, 0);
    _laneFinish.assign(_lanes, 0);
}

void
CompiledEvaluator::compile()
{
    const auto &nodes = _netlist.nodes();
    const auto &regs = _netlist.registers();
    auto isSource = [](const Node &n) {
        return n.kind == OpKind::Const || n.kind == OpKind::Input ||
               n.kind == OpKind::RegRead;
    };

    // Arena layout: every node gets a private lane-strided limb block
    // (lane l of node i at _slotOf[i] + l * nlimbs(width)).  The
    // register block comes first: each register's current value, in
    // register order, which its RegRead node reads.  The next block
    // mirrors it, so register r's next value sits _regSpan limbs after
    // its current value, and a commit is one copy of the whole block.
    constexpr uint32_t kNoSlot = ~0u;
    _slotOf.assign(nodes.size(), kNoSlot);
    for (const Register &r : regs)
        _slotOf[r.current] = _arena.alloc(r.width);
    for (const Register &r : regs)
        _regSpan = _arena.alloc(r.width) - _slotOf[r.current];

    // A register's next-value node is computed straight into its
    // next-block slot.  A register whose next value is a source node
    // (which keeps its own slot) or a node another register already
    // holds gets a copy appended to the tape instead; the copies run
    // after every node, so they read this cycle's values and the
    // pre-commit registers.
    std::vector<const Register *> copied;
    for (const Register &r : regs) {
        if (isSource(nodes[r.next]) || _slotOf[r.next] != kNoSlot)
            copied.push_back(&r);
        else
            _slotOf[r.next] = _slotOf[r.current] + _regSpan;
    }
    for (size_t i = 0; i < nodes.size(); ++i)
        if (_slotOf[i] == kNoSlot)
            _slotOf[i] = _arena.alloc(nodes[i].width);
    _arena.seal();

    // Constants are written once, here, into every lane; register
    // current slots start at their init values; inputs start at zero
    // (as the reference evaluator's _inputs do).
    for (size_t i = 0; i < nodes.size(); ++i) {
        const Node &n = nodes[i];
        if (n.kind == OpKind::Const)
            _arena.broadcast(_slotOf[i], n.value);
    }
    for (const Register &r : regs)
        _arena.broadcast(_slotOf[r.current], r.init);

    // Memories become dense limb arrays, one image per lane
    // (including the padded lanes — the tape reads them).
    _mems = tape::buildMemStates(_netlist, _padded);

    // Lower each combinational node to one tape instruction.  Node ids
    // are already topologically ordered (operands precede users).
    _tape.reserve(nodes.size() + copied.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        const Node &n = nodes[i];
        if (isSource(n))
            continue; // no tape entry; slot written out-of-band
        uint32_t a = n.operands.size() > 0 ? _slotOf[n.operands[0]] : 0;
        uint32_t b = n.operands.size() > 1 ? _slotOf[n.operands[1]] : 0;
        uint32_t c = n.operands.size() > 2 ? _slotOf[n.operands[2]] : 0;
        _tape.push_back(tape::lower(_netlist, static_cast<NodeId>(i),
                                    _slotOf[i], a, b, c, _mems));
    }
    for (const Register *r : copied)
        _tape.push_back(tape::copy(_slotOf[r->current] + _regSpan,
                                   _slotOf[r->next], r->width));

    for (const Register &r : regs)
        _regCommits.push_back({_slotOf[r.current], lo::nlimbs(r.width)});

    for (const MemWrite &w : _netlist.memWrites()) {
        MemCommit mc;
        mc.mem = w.mem;
        mc.addr = _slotOf[w.addr];
        mc.data = _slotOf[w.data];
        mc.enable = _slotOf[w.enable];
        mc.addrStride = lo::nlimbs(_netlist.node(w.addr).width);
        _memCommits.push_back(mc);
    }

    _effects = tape::Effects::compile(
        _netlist, [this](NodeId id) { return _slotOf[id]; });
}

void
CompiledEvaluator::commitRegisterBlock()
{
    // The tape wrote every next-block slot this cycle, and nothing
    // reads the register block after this point.
    uint64_t *A = _arena.data();
    std::memcpy(A, A + _regSpan, _regSpan * sizeof(uint64_t));
}

void
CompiledEvaluator::commitLane(unsigned lane)
{
    uint64_t *A = _arena.data();
    // Memory writes may read RegRead slots, so they run before the
    // register commits overwrite them; the next values sit in their
    // own block.  Both reproduce the reference semantics of
    // committing against the pre-commit combinational snapshot.
    for (const MemCommit &w : _memCommits) {
        if (A[w.enable + lane]) {
            tape::MemState &m = _mems[w.mem];
            uint64_t addr =
                A[w.addr + static_cast<size_t>(lane) * w.addrStride] %
                m.depth;
            lo::copy(m.word(addr, lane),
                     A + w.data + static_cast<size_t>(lane) * m.wordLimbs,
                     m.wordLimbs);
        }
    }
    for (const RegCommit &rc : _regCommits) {
        uint64_t *cur = A + rc.dst + static_cast<size_t>(lane) * rc.limbs;
        lo::copy(cur, cur + _regSpan, rc.limbs);
    }
}

void
CompiledEvaluator::commitAll()
{
    // All lanes commit: memory writes keep per-lane enables, and the
    // registers of every lane move in one block copy.
    uint64_t *A = _arena.data();
    const unsigned L = _lanes;
    for (const MemCommit &w : _memCommits) {
        tape::MemState &m = _mems[w.mem];
        for (unsigned l = 0; l < L; ++l) {
            if (!A[w.enable + l])
                continue;
            uint64_t addr =
                A[w.addr + static_cast<size_t>(l) * w.addrStride] %
                m.depth;
            lo::copy(m.word(addr, l),
                     A + w.data + static_cast<size_t>(l) * m.wordLimbs,
                     m.wordLimbs);
        }
    }
    commitRegisterBlock();
}

void
CompiledEvaluator::recountActive()
{
    unsigned active = 0;
    for (unsigned l = 0; l < _lanes; ++l)
        if (_lane[l].status == SimStatus::Ok)
            ++active;
    _active = active;
}

void
CompiledEvaluator::evalCycle()
{
    // tape::run folds to the scalar executor at _padded == 1, so the
    // single-lane path keeps its pre-ensemble codegen.
    tape::run(_tape.data(), _tape.size(), _arena.data(), _mems.data(),
              _padded);
}

void
CompiledEvaluator::stepScalar()
{
    // Single-lane fast path: the pre-ensemble per-cycle shape (no
    // per-lane flag vectors, no active-lane recount, no lane-offset
    // arithmetic) so the scalar engine keeps its original per-cycle
    // cost on overhead-bound designs.  stepOnce() is the general
    // N-lane body; the two must stay behaviourally identical at one
    // lane (the ensemble tests pin lanes=1 against the reference
    // evaluator).  The tape evaluation itself goes through the
    // evalCycle() hook — one virtual call per cycle — so the AOT
    // engine can swap the executor without touching effects/commits.
    evalCycle();
    uint64_t *A = _arena.data();
    LaneState &lane = _lane[0];

    bool finished = false;
    if (!_effects.fire(A, 0, lane.cycle, lane.status,
                       lane.failureMessage, lane.displayLog, onDisplay,
                       finished)) {
        _active = 0; // assert failed: no commit, no cycle
        return;
    }

    // The lane-0 commit with the lane arithmetic folded out (the
    // same mem-writes-then-registers order as commitAll).
    for (const MemCommit &w : _memCommits) {
        if (A[w.enable]) {
            tape::MemState &m = _mems[w.mem];
            uint64_t addr = A[w.addr] % m.depth;
            lo::copy(&m.words[addr * m.wordLimbs], A + w.data,
                     m.wordLimbs);
        }
    }
    commitRegisterBlock();

    ++lane.cycle;
    ++_cycle;
    if (finished) {
        lane.status = SimStatus::Finished;
        _active = 0;
    }
}

void
CompiledEvaluator::stepOnce()
{
    // Compute every lane (frozen lanes are recomputed harmlessly:
    // their commits and effects below are skipped), then fire each
    // active lane's side effects in lane order against this cycle's
    // values — the same order as the reference evaluator within each
    // lane; a failed assert suppresses that lane's displays, $finish
    // and commit.  The tape evaluation goes through the evalCycle()
    // hook so the AOT engine's laned cycle function covers ensembles
    // too.
    evalCycle();
    const uint64_t *A = _arena.data();

    // Fused fast path: no asserts or displays (nothing can fail,
    // throw or log) and no frozen lanes — every lane commits as a
    // whole block and firing is just the $finish-enable checks.
    // Semantically identical to fireLanes + the general commit below
    // for this case; it exists because on overhead-bound designs the
    // per-cycle bookkeeping rivals the compute.
    if (_active == _lanes && _effects.onlyFinishes()) {
        unsigned finishing = 0;
        for (unsigned l = 0; l < _lanes; ++l) {
            bool fin = _effects.anyFinish(A, l);
            _laneFinish[l] = fin;
            finishing += fin;
        }
        commitAll();
        ++_cycle;
        if (finishing == 0) {
            for (unsigned l = 0; l < _lanes; ++l)
                ++_lane[l].cycle;
            return;
        }
        for (unsigned l = 0; l < _lanes; ++l) {
            ++_lane[l].cycle;
            if (_laneFinish[l])
                _lane[l].status = SimStatus::Finished;
        }
        _active = _lanes - finishing;
        return;
    }

    // Per-lane commit decision (shared with the parallel engine via
    // Effects::fireLanes); a throwing display sink aborts the whole
    // ensemble cycle — logs rolled back, nothing commits — so the
    // caller can retry it.
    tape::Effects::FireResult fired =
        _effects.fireLanes(A, _lanes, _lane.data(), _laneCommit.data(),
                           _laneFinish.data(), onDisplay);
    if (fired.thrown) {
        recountActive();
        std::rethrow_exception(fired.thrown);
    }

    if (fired.committing == _lanes) {
        // Every lane commits (the common case while no lane has
        // terminated): the registers move as one block instead of
        // per-lane copies.
        commitAll();
    } else {
        for (unsigned l = 0; l < _lanes; ++l)
            if (_laneCommit[l])
                commitLane(l);
    }
    unsigned active = 0;
    for (unsigned l = 0; l < _lanes; ++l) {
        if (_laneCommit[l]) {
            ++_lane[l].cycle;
            if (_laneFinish[l])
                _lane[l].status = SimStatus::Finished;
        }
        active += _lane[l].status == SimStatus::Ok;
    }
    _active = active;
    if (fired.committing != 0)
        ++_cycle;
}

SimStatus
CompiledEvaluator::step()
{
    if (_active != 0) {
        if (_lanes == 1)
            stepScalar();
        else
            stepOnce();
    }
    return _lane[0].status;
}

SimStatus
CompiledEvaluator::run(uint64_t max_cycles)
{
    // Devirtualised batch loop: one call drives the whole batch
    // through the non-virtual step body, until every lane is
    // terminal or the batch ends.
    if (_lanes == 1) {
        for (uint64_t i = 0; i < max_cycles && _active != 0; ++i)
            stepScalar();
    } else {
        for (uint64_t i = 0; i < max_cycles && _active != 0; ++i)
            stepOnce();
    }
    return _lane[0].status;
}

void
CompiledEvaluator::setInput(const std::string &name, const BitVector &value)
{
    driveInput(resolveInput(_netlist, name, value), value);
}

void
CompiledEvaluator::checkDriveTarget(NodeId input,
                                    const BitVector &value) const
{
    MANTICORE_ASSERT(input < _netlist.numNodes() &&
                         _netlist.node(input).kind == OpKind::Input &&
                         _netlist.node(input).width == value.width(),
                     "bad driveInput target");
}

void
CompiledEvaluator::driveInput(NodeId input, const BitVector &value)
{
    checkDriveTarget(input, value);
    _arena.broadcast(_slotOf[input], value);
}

void
CompiledEvaluator::driveInputLane(unsigned lane, NodeId input,
                                  const BitVector &value)
{
    checkDriveTarget(input, value);
    _arena.write(_slotOf[input], lane, value);
}

SimStatus
CompiledEvaluator::laneStatus(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].status;
}

uint64_t
CompiledEvaluator::laneCycle(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].cycle;
}

const std::string &
CompiledEvaluator::laneFailureMessage(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].failureMessage;
}

const std::vector<std::string> &
CompiledEvaluator::laneDisplayLog(unsigned lane) const
{
    MANTICORE_ASSERT(lane < _lanes, "bad lane ", lane);
    return _lane[lane].displayLog;
}

BitVector
CompiledEvaluator::regValue(RegId id) const
{
    return regValueLane(0, id);
}

BitVector
CompiledEvaluator::regValueLane(unsigned lane, RegId id) const
{
    MANTICORE_ASSERT(id < _netlist.numRegisters(), "bad register id");
    const Register &r = _netlist.reg(id);
    return _arena.read(_slotOf[r.current], r.width, lane);
}

BitVector
CompiledEvaluator::regValue(const std::string &name) const
{
    return regValue(resolveRegister(_netlist, name));
}

BitVector
CompiledEvaluator::memValue(MemId id, uint64_t addr) const
{
    return memValueLane(0, id, addr);
}

BitVector
CompiledEvaluator::memValueLane(unsigned lane, MemId id,
                                uint64_t addr) const
{
    MANTICORE_ASSERT(id < _mems.size() && addr < _mems[id].depth &&
                         lane < _lanes,
                     "memValue out of range");
    return _mems[id].value(addr, lane);
}

std::vector<uint32_t>
CompiledEvaluator::liveOutSlots() const
{
    std::vector<uint32_t> slots = _effects.operandSlots();
    for (const RegCommit &rc : _regCommits)
        slots.push_back(rc.dst + _regSpan);
    for (const MemCommit &w : _memCommits)
        slots.insert(slots.end(), {w.addr, w.data, w.enable});
    return slots;
}

// ---- checkpoint/restore hooks (see EvaluatorBase::saveLaneState) ----

BitVector
CompiledEvaluator::inputValueLane(unsigned lane, NodeId input) const
{
    return _arena.read(_slotOf[input], _netlist.node(input).width, lane);
}

void
CompiledEvaluator::restoreReg(unsigned lane, RegId id,
                              const BitVector &value)
{
    _arena.write(_slotOf[_netlist.reg(id).current], lane, value);
}

void
CompiledEvaluator::restoreMemWord(unsigned lane, MemId id, uint64_t addr,
                                  const BitVector &value)
{
    tape::MemState &ms = _mems[id];
    uint64_t *dst = ms.word(addr, lane);
    const std::vector<uint64_t> &limbs = value.limbs();
    for (unsigned i = 0; i < ms.wordLimbs; ++i)
        dst[i] = i < limbs.size() ? limbs[i] : 0;
}

void
CompiledEvaluator::restoreLaneMeta(unsigned lane, uint64_t cycle,
                                   SimStatus status, std::string failure,
                                   std::vector<std::string> log)
{
    LaneState &ls = _lane[lane];
    ls.cycle = cycle;
    ls.status = status;
    ls.failureMessage = std::move(failure);
    ls.displayLog = std::move(log);
    ls.logMark = ls.displayLog.size();
}

void
CompiledEvaluator::snapshotRestored()
{
    recountActive();
    std::fill(_laneCommit.begin(), _laneCommit.end(), 0);
    std::fill(_laneFinish.begin(), _laneFinish.end(), 0);
    uint64_t cycle = 0;
    for (const LaneState &ls : _lane)
        cycle = std::max(cycle, ls.cycle);
    _cycle = cycle;
}

} // namespace manticore::netlist
