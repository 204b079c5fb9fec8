/**
 * @file
 * Structural parameters of the Picos Manager (paper Figures 4 and 5).
 */

#ifndef PICOSIM_MANAGER_MANAGER_PARAMS_HH
#define PICOSIM_MANAGER_MANAGER_PARAMS_HH

#include "sim/types.hh"

namespace picosim::manager
{

struct ManagerParams
{
    /** Outstanding Submission Requests buffered per core. */
    unsigned requestQueueDepth = 4;

    /**
     * Per-core submission packet buffer. A 15-dependence task is 48
     * non-zero packets, so one full burst fits.
     */
    unsigned subBufferDepth = 48;

    /** Final buffer between the Submission Handler and Picos (Figure 4). */
    unsigned finalBufferDepth = 8;

    /** Work-fetch routing queue (deadlock scenario 2, Section IV-C). */
    unsigned routingQueueDepth = 8;

    /** Central RoCC Ready Queue of 96-bit encoded tuples (Figure 5). */
    unsigned roccReadyQueueDepth = 4;

    /** Per-core private ready queues (96-bit tuples, Section IV-F2). */
    unsigned coreReadyQueueDepth = 2;

    /** Per-core retirement buffers ahead of the Round Robin Arbiter. */
    unsigned retireBufferDepth = 2;
};

} // namespace picosim::manager

#endif // PICOSIM_MANAGER_MANAGER_PARAMS_HH
