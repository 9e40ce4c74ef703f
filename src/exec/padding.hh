/**
 * @file
 * The ensemble lane-padding policy.
 *
 * The laned limb kernels are instantiated at the compile-time lane
 * counts {1, 2, 4, 8, 16} so their lane loops vectorise with a known
 * trip count and no scalar tail.  A requested lane count that is not
 * one of those widths is padded UP to the next instantiated width
 * (and counts above 16 to a multiple of 16, executed as unrolled
 * 16-wide groups): the engine allocates and computes `padded` lanes
 * but only the `requested` lanes exist as far as any observer is
 * concerned.  Padded lanes never fire effects or write memories, and
 * never appear in stats, status, RunResult::lanes, snapshots or
 * replay digests.  In the serial compiled netlist engines
 * (netlist.compiled, netlist.aot) their registers advance with the
 * one-copy register block commit; elsewhere they stay at their init
 * state.  Either way their (deterministic, discarded) values cost
 * nothing beyond the vector slots that would otherwise sit empty.
 */

#ifndef MANTICORE_EXEC_PADDING_HH
#define MANTICORE_EXEC_PADDING_HH

namespace manticore::exec {

/** Smallest instantiated ensemble width >= requested (see file
 *  comment).  requested == 0 is the caller's bug and returns 0. */
inline unsigned
paddedLaneCount(unsigned requested)
{
    if (requested <= 2)
        return requested;
    if (requested <= 4)
        return 4;
    if (requested <= 8)
        return 8;
    if (requested <= 16)
        return 16;
    return (requested + 15) & ~15u; // multiple of 16: no vector tail
}

} // namespace manticore::exec

#endif // MANTICORE_EXEC_PADDING_HH
