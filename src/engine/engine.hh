/**
 * @file
 * The unified execution-engine interface.
 *
 * The repository grew its execution engines in three disjoint API
 * families: the netlist evaluators (`netlist::EvaluatorBase`), the
 * functional ISA interpreters (`isa::InterpreterBase`), and the
 * cycle-level `machine::Machine`.  Every harness — the Simulation
 * cross-checks, the Host attach overloads, each bench's setup — was
 * written once per family.  `engine::Engine` is the one interface all
 * of them implement (through the thin adapters in adapters.hh), so a
 * harness is written once and works against any engine.
 *
 * Design points:
 *
 *  - **Capability-driven.**  Not every engine supports every feature
 *    (netlist engines have free inputs but no exception callback; the
 *    ISA-level engines are the reverse).  `capabilities()` reports
 *    what an engine can do; calling an unsupported method is a
 *    user-facing fatal() naming the engine.
 *
 *  - **String-free hot path.**  Names are resolved exactly once:
 *    `bindInput` / `probe` turn a signal name into a dense integer
 *    handle; `setInput` / `read` on handles never touch a string or a
 *    hash map.
 *
 *  - **Batched stepping.**  `step(n)` advances up to n cycles in one
 *    call and is plumbed into the engines that can exploit it: the
 *    partition-parallel evaluator wakes its worker pool once per
 *    batch, and the flat-tape ISA interpreter
 *    runs the whole batch per dispatch (see src/engine/README.md for
 *    measured speedups).  `step(n)` is cycle-exact with n calls to
 *    `step(1)` for every engine — the engine differential suite pins
 *    this.
 *
 *  - **Uniform observation.**  Probes address RTL registers by name
 *    on every engine; ISA-level engines reassemble them from their
 *    16-bit chunk homes through the compiler's observation map.  This
 *    is what makes differential testing across engine families a
 *    one-liner (see crosscheck.hh).
 *
 * Engines are obtained from the registry (`engine::create`, see
 * registry.hh) or by wrapping an existing concrete engine
 * (`engine::wrap`, see adapters.hh).
 */

#ifndef MANTICORE_ENGINE_ENGINE_HH
#define MANTICORE_ENGINE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isa/interpreter.hh" // isa::HostAction
#include "support/bitvector.hh"

namespace manticore::engine {

/** Unified run status across all engine families:
 *  netlist::SimStatus{Ok,Finished,AssertFailed} and
 *  isa::RunStatus{Running,Finished,Failed} both map onto this. */
enum class Status
{
    Running,
    Finished,
    Failed,
};

const char *statusName(Status status);

/** Capability bits (see Engine::capabilities). */
namespace cap {

/// bindInput/setInput drive free design inputs.
constexpr uint32_t kInputs = 1u << 0;
/// probe/read observe RTL register values.
constexpr uint32_t kProbes = 1u << 1;
/// displayLog/setDisplaySink carry $display output.
constexpr uint32_t kDisplayLog = 1u << 2;
/// setExceptionHandler services EXPECT exceptions (ISA-level engines).
constexpr uint32_t kExceptions = 1u << 3;
/// step(n) is natively batched, not a step(1) loop.
constexpr uint32_t kBatchedStep = 1u << 4;
/// stats() include hardware performance counters (machine model).
constexpr uint32_t kPerfCounters = 1u << 5;
/// The engine is an N-lane ensemble (lanes() > 1): one step advances
/// N decoupled simulations, addressed by the lane-indexed calls.
constexpr uint32_t kEnsemble = 1u << 6;
/// The per-cycle executor is AOT-compiled native code (a dlopen'd
/// cycle function, see src/netlist/aot.hh) — NOT set when the AOT
/// engine fell back to the interpreted tape.
constexpr uint32_t kAotCompiled = 1u << 7;
/// save()/restore() checkpoint the full architectural state into an
/// engine::Snapshot (see snapshot.hh) at a cycle boundary.
constexpr uint32_t kSnapshot = 1u << 8;

} // namespace cap

struct Snapshot; // snapshot.hh

/** Dense handle for a bound input (engine-specific index space). */
using InputHandle = uint32_t;
/** Dense handle for a probed signal: handles are exactly
 *  0..numProbes()-1, so a harness can enumerate without strings. */
using ProbeHandle = uint32_t;

/** Result of a (possibly batched) step() call. */
struct RunResult
{
    Status status = Status::Running;
    /// Cycles actually advanced by this call (== n unless the run
    /// finished, failed, or was already terminal).  On an ensemble
    /// this counts ensemble cycles: rendezvous that advanced at
    /// least one lane.
    uint64_t cycles = 0;
    /// Simulations advanced per cycle (1 unless cap::kEnsemble).
    uint32_t lanes = 1;
};

/** One named counter in an engine's stats() snapshot. */
struct Stat
{
    std::string name;
    uint64_t value = 0;
};

/** Handler for EXPECT exceptions (cap::kExceptions); pid/eid as in
 *  isa::InterpreterBase::onException. */
using ExceptionHandler =
    std::function<isa::HostAction(uint32_t pid, uint16_t eid)>;

/** Sink for $display lines (cap::kDisplayLog). */
using DisplaySink = std::function<void(const std::string &)>;

class Engine
{
  public:
    virtual ~Engine() = default;

    /** Registry name of this engine ("netlist.parallel", "isa.tape",
     *  "machine", ...). */
    virtual const char *name() const = 0;

    /** Bitwise OR of the cap:: bits this engine supports. */
    virtual uint32_t capabilities() const = 0;

    bool
    has(uint32_t mask) const
    {
        return (capabilities() & mask) == mask;
    }

    // ---- free inputs (cap::kInputs) -------------------------------
    /** One-time name resolution for a free design input.  Unknown
     *  names are a user-facing fatal() that lists the valid input
     *  names of this engine. */
    virtual InputHandle bindInput(const std::string &input);
    /** Drive a bound input (applies from the next step() onward).
     *  String-free: safe on the hot path. */
    virtual void setInput(InputHandle handle, const BitVector &value);

    // ---- RTL register probes (cap::kProbes) -----------------------
    /** Number of probeable signals; valid handles are 0..n-1. */
    virtual size_t numProbes() const { return 0; }
    /** One-time name resolution for a probeable signal.  Unknown
     *  names are a user-facing fatal() listing the valid signals. */
    virtual ProbeHandle probe(const std::string &signal);
    virtual const std::string &probeName(ProbeHandle handle) const;
    virtual unsigned probeWidth(ProbeHandle handle) const;
    /** Committed value of the signal as of the last completed cycle.
     *  String-free: safe on the hot path. */
    virtual BitVector read(ProbeHandle handle) const = 0;

    // ---- stepping -------------------------------------------------
    /** Advance up to n cycles; stops early when the run finishes or
     *  fails.  Cycle-exact with n calls of step(1) on every engine.
     *  A terminal engine returns immediately with cycles == 0. */
    virtual RunResult step(uint64_t n = 1) = 0;

    /** Completed cycles since construction. */
    virtual uint64_t cycle() const = 0;
    virtual Status status() const = 0;
    /** Failure description once status() == Failed (engines without
     *  their own message — the borrowed ISA-level adapters, whose
     *  failures live in the attached Host — return ""). */
    virtual std::string failureMessage() const { return {}; }

    /** Named counters: every engine reports "cycles"; engines add
     *  family-specific entries (instret, dispatches, stall cycles,
     *  partition count, ...). */
    virtual std::vector<Stat> stats() const;

    // ---- $display log (cap::kDisplayLog) --------------------------
    virtual const std::vector<std::string> &displayLog() const;
    /** Live sink invoked for each $display line as it fires. */
    virtual void setDisplaySink(DisplaySink sink);

    // ---- exception servicing (cap::kExceptions) -------------------
    /** Install the host-side EXPECT servicing callback.  On engines
     *  created through the registry a Host is already wired; setting
     *  a handler replaces it. */
    virtual void setExceptionHandler(ExceptionHandler handler);

    // ---- ensemble lanes (cap::kEnsemble) --------------------------
    // An ensemble engine advances N decoupled simulations ("lanes")
    // of the same design per step: shared arena, lane-strided state,
    // one rendezvous for all lanes.  Lane 0 always aliases the
    // scalar API above (so every single-lane caller works untouched,
    // and the lane-indexed calls with lane == 0 work on EVERY
    // engine); a lane that finishes or fails is frozen while the
    // rest keep running, and step(n) runs until all lanes are
    // terminal or the batch ends.  The un-indexed setInput
    // broadcasts to every lane of an ensemble.

    /** Number of decoupled simulations this engine advances per
     *  step; 1 unless created with CreateOptions::lanes > 1. */
    virtual unsigned lanes() const { return 1; }
    /** Drive one lane's copy of a bound input. */
    virtual void setInputLane(InputHandle handle, unsigned lane,
                              const BitVector &value);
    /** One lane's committed value of a probed signal. */
    virtual BitVector readLane(ProbeHandle handle, unsigned lane) const;
    virtual Status laneStatus(unsigned lane) const;
    /** Cycles lane `lane` actually committed (a frozen lane stops
     *  counting while the ensemble moves on). */
    virtual uint64_t laneCycle(unsigned lane) const;
    virtual std::string laneFailureMessage(unsigned lane) const;
    virtual const std::vector<std::string> &
    laneDisplayLog(unsigned lane) const;

    // ---- checkpoint/restore (cap::kSnapshot) ----------------------
    // A Snapshot captures the complete architectural state of every
    // lane at a cycle boundary — in the engine family's canonical
    // byte format, so a snapshot saved on one engine restores on any
    // other engine of the same family simulating the same design
    // (identity is checked: family, design hash, lane count, version;
    // a mismatched restore is a loud user-facing fatal()).

    /** Serialize the full architectural state into `out` (reuses its
     *  buffers, so repeated saves into one Snapshot don't allocate
     *  once capacity is warm). */
    virtual void save(Snapshot &out) const;
    /** Replace the architectural state from a snapshot.  Fatal() on
     *  any identity mismatch rather than restoring garbage. */
    virtual void restore(const Snapshot &snapshot);

  protected:
    /** Shared fatal() for calls outside an engine's capability set. */
    [[noreturn]] void unsupported(const char *what) const;
};

/** Route one lane's stimulus: ensembles take it on the lane, scalar
 *  engines (e.g. a per-lane golden standing in for `lane`) on their
 *  only lane.  This is what lets one stimulus function drive an
 *  ensemble subject and its N scalar golden runs identically. */
inline void
driveLane(Engine &engine, InputHandle handle, unsigned lane,
          const BitVector &value)
{
    if (engine.lanes() > 1)
        engine.setInputLane(handle, lane, value);
    else
        engine.setInput(handle, value);
}

} // namespace manticore::engine

#endif // MANTICORE_ENGINE_ENGINE_HH
