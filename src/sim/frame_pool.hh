/**
 * @file
 * Thread-local free-list allocator for coroutine frames.
 *
 * Every simulated task body, runtime routine and nested CoTask call
 * allocates a coroutine frame; under the general-purpose allocator that
 * malloc/free churn is both a single-run cost and — because the heap is
 * the ONE resource all JobManager worker threads share — the dominant
 * cross-thread serialization point of parallel sweeps. Frames are
 * perfectly recyclable: a handful of distinct sizes, allocated and freed
 * in enormous numbers, never crossing threads (each batch job simulates
 * entirely on one worker). A per-thread, size-bucketed free list makes
 * every steady-state frame allocation a pointer pop with zero sharing.
 *
 * Blocks are returned to the system allocator when the owning thread
 * exits; oversized frames (> kMaxBytes) fall through to operator new.
 */

#ifndef PICOSIM_SIM_FRAME_POOL_HH
#define PICOSIM_SIM_FRAME_POOL_HH

#include <cstddef>
#include <new>

namespace picosim::sim::detail
{

class FramePool
{
  public:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kMaxBytes = 4096;

    ~FramePool()
    {
        for (Node *&head : free_) {
            while (head) {
                Node *next = head->next;
                ::operator delete(static_cast<void *>(head));
                head = next;
            }
        }
    }

    void *
    alloc(std::size_t n)
    {
        if (n == 0)
            n = 1;
        if (n > kMaxBytes)
            return ::operator new(n);
        const std::size_t b = (n - 1) / kGranule;
        if (Node *p = free_[b]) {
            free_[b] = p->next;
            return p;
        }
        return ::operator new((b + 1) * kGranule);
    }

    void
    dealloc(void *p, std::size_t n)
    {
        if (n == 0)
            n = 1;
        if (n > kMaxBytes) {
            ::operator delete(p);
            return;
        }
        const std::size_t b = (n - 1) / kGranule;
        Node *node = static_cast<Node *>(p);
        node->next = free_[b];
        free_[b] = node;
    }

    /** The calling thread's pool. */
    static FramePool &
    local()
    {
        static thread_local FramePool pool;
        return pool;
    }

  private:
    struct Node
    {
        Node *next;
    };

    Node *free_[kMaxBytes / kGranule] = {};
};

inline void *
frameAlloc(std::size_t n)
{
    return FramePool::local().alloc(n);
}

inline void
frameFree(void *p, std::size_t n)
{
    FramePool::local().dealloc(p, n);
}

} // namespace picosim::sim::detail

#endif // PICOSIM_SIM_FRAME_POOL_HH
