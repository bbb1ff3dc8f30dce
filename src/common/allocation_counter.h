/**
 * @file
 * A counting replacement of the global operator new/delete, for the
 * binaries that assert a steady state allocates nothing (DESIGN.md §8).
 *
 * Replacing operator new replaces it for the whole program, so the
 * definitions live in the quake_allocation_counter OBJECT library,
 * linked only into the test and bench binaries that read the count —
 * never into a library whose other users must keep the default
 * allocator.  allocationCounter() is defined only in those binaries.
 */

#ifndef QUAKE98_COMMON_ALLOCATION_COUNTER_H_
#define QUAKE98_COMMON_ALLOCATION_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace quake::common
{

/**
 * Calls of operator new and new[] made by this process so far.  Read
 * it relaxed: it counts, it does not synchronize.
 */
const std::atomic<std::int64_t> &allocationCounter();

} // namespace quake::common

#endif // QUAKE98_COMMON_ALLOCATION_COUNTER_H_
