/**
 * @file
 * Shared by the one-process tests of the partition-parallel engines
 * (test_parallel_evaluator.cc, test_aot_parallel.cc): when the
 * Balanced merge picks one process, netlist.parallel(.aot) runs the
 * serial CompiledEvaluator, so it must have the serial engine's shape
 * and track the reference Evaluator lane by lane.
 */

#ifndef MANTICORE_TESTS_ONE_PROCESS_HH
#define MANTICORE_TESTS_ONE_PROCESS_HH

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "designs/designs.hh"
#include "netlist/compiled_evaluator.hh"
#include "netlist/evaluator.hh"
#include "netlist/parallel_evaluator.hh"

namespace manticore::testing {

/** The large build (allBenchmarksLarge) of one benchmark, built for
 *  its default horizon. */
inline netlist::Netlist
largeDesign(const std::string &name)
{
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge())
        if (bm.name == name)
            return bm.build(bm.defaultCheckCycles);
    ADD_FAILURE() << "no large benchmark " << name;
    return netlist::Netlist(name);
}

/** One process, no worker, and the serial engine's tape and arena at
 *  the same options. */
inline void
expectSerialShape(const netlist::ParallelCompiledEvaluator &par,
                  const netlist::Netlist &nl,
                  const netlist::EvalOptions &options)
{
    netlist::CompiledEvaluator serial(nl, options);
    EXPECT_EQ(par.numProcesses(), 1u);
    EXPECT_EQ(par.ownedThreads(), 0u);
    EXPECT_EQ(par.tapeLength(), serial.tapeLength());
    EXPECT_EQ(par.arenaLimbs(), serial.arenaLimbs());
}

/** Step `subject` (at cycle 0) and one reference Evaluator per lane
 *  for up to `cycles` cycles, asserting after every cycle that each
 *  lane's status, cycle count, failure message, display log,
 *  registers and memory words are its reference's.  Stops once every
 *  lane is terminal. */
inline void
expectLanesMatchReference(const netlist::Netlist &nl,
                          netlist::EvaluatorBase &subject, uint64_t cycles)
{
    using netlist::Evaluator;
    using netlist::MemId;
    using netlist::RegId;
    std::vector<std::unique_ptr<Evaluator>> refs;
    for (unsigned l = 0; l < subject.lanes(); ++l)
        refs.push_back(std::make_unique<Evaluator>(nl));
    for (uint64_t c = 0; c < cycles; ++c) {
        subject.step();
        bool live = false;
        for (unsigned l = 0; l < refs.size(); ++l) {
            Evaluator &ref = *refs[l];
            ref.step();
            SCOPED_TRACE("lane " + std::to_string(l) + " after cycle " +
                         std::to_string(c));
            ASSERT_EQ(ref.status(), subject.laneStatus(l));
            ASSERT_EQ(ref.cycle(), subject.laneCycle(l));
            ASSERT_EQ(ref.failureMessage(), subject.laneFailureMessage(l));
            ASSERT_EQ(ref.displayLog(), subject.laneDisplayLog(l));
            for (size_t r = 0; r < nl.numRegisters(); ++r)
                ASSERT_EQ(ref.regValue(static_cast<RegId>(r)),
                          subject.regValueLane(l, static_cast<RegId>(r)))
                    << "reg " << nl.reg(static_cast<RegId>(r)).name;
            for (size_t m = 0; m < nl.numMemories(); ++m) {
                MemId id = static_cast<MemId>(m);
                for (uint64_t a = 0; a < nl.memory(id).depth; ++a)
                    ASSERT_EQ(ref.memValue(id, a),
                              subject.memValueLane(l, id, a))
                        << "mem " << m << "[" << a << "]";
            }
            live |= ref.status() == netlist::SimStatus::Ok;
        }
        if (!live)
            return;
    }
}

} // namespace manticore::testing

#endif // MANTICORE_TESTS_ONE_PROCESS_HH
