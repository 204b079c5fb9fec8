/**
 * @file
 * C++20 coroutine machinery used to express simulated software threads.
 *
 * A hart's software (runtime + application glue) is written as ordinary
 * coroutine code returning CoTask<T>. Awaiting Delay{n} advances that hart's
 * local time by n cycles; awaiting WaitUntil{pred} polls a condition once
 * per cycle. Nested CoTask calls use symmetric transfer so runtime code can
 * be decomposed into functions exactly like real runtime code.
 *
 * Execution model: a HartContext owns the root coroutine. The owning core
 * resumes the innermost suspended coroutine whenever the hart's wake
 * condition is met. Everything is single-threaded and deterministic.
 */

#ifndef PICOSIM_SIM_COTASK_HH
#define PICOSIM_SIM_COTASK_HH

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/clock.hh"
#include "sim/frame_pool.hh"
#include "sim/log.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace picosim::sim
{

class HartContext;

namespace detail
{

/** Promise base: continuation chaining + exception capture. Frames are
 *  recycled through the thread-local FramePool — simulated software
 *  spawns coroutines at task rates, and pooling keeps that churn off the
 *  shared process heap (the batch pool's main scaling hazard). */
struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    static void *operator new(std::size_t n) { return frameAlloc(n); }

    static void
    operator delete(void *p, std::size_t n)
    {
        frameFree(p, n);
    }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };
};

} // namespace detail

/**
 * Lazily-started coroutine task. co_await it to run it to completion on the
 * simulated timeline of the current hart.
 */
template <typename T = void>
class [[nodiscard]] CoTask
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        CoTask
        get_return_object()
        {
            return CoTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_value(T v) { value = std::move(v); }
        void unhandled_exception() { error = std::current_exception(); }
    };

    CoTask() = default;

    explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    CoTask(CoTask &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    CoTask &
    operator=(CoTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return !handle_ || handle_.done(); }

    std::coroutine_handle<> handle() const { return handle_; }

    // Awaiter interface: symmetric transfer into the child coroutine.
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    T
    await_resume()
    {
        auto &p = handle_.promise();
        if (p.error)
            std::rethrow_exception(p.error);
        return std::move(*p.value);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

/** Specialization for void-returning tasks. */
template <>
class [[nodiscard]] CoTask<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        CoTask
        get_return_object()
        {
            return CoTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { error = std::current_exception(); }
    };

    CoTask() = default;

    explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    CoTask(CoTask &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    CoTask &
    operator=(CoTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return !handle_ || handle_.done(); }

    std::coroutine_handle<> handle() const { return handle_; }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    void
    await_resume()
    {
        auto &p = handle_.promise();
        if (p.error)
            std::rethrow_exception(p.error);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

/**
 * Execution context of one simulated hart's software thread.
 *
 * The owning core calls tick(); awaitables (Delay/WaitUntil) register wake
 * conditions through current(), which is valid only while a coroutine is
 * being resumed by this context.
 */
class HartContext
{
  public:
    /** Wake-predicate storage: inline, never heap-allocated. */
    using Predicate = SmallFn<bool(), 32>;

    explicit HartContext(const Clock &clock) : clock_(clock) {}

    /** Install and start a root coroutine (does not run it yet). */
    void
    start(CoTask<void> root)
    {
        root_ = std::move(root);
        resumeNext_ = root_.handle();
        wakeAt_ = clock_.now();
        pred_.reset();
        finished_ = !root_.valid();
    }

    bool started() const { return root_.valid(); }

    /** Completion is latched after every resume, so the per-evaluation
     *  queries (runnable/wakeAt/threadDone) never touch the coroutine
     *  frame. */
    bool done() const { return finished_; }

    /** Cycle at which this hart next wants to run (kCycleNever if done). */
    Cycle
    wakeAt() const
    {
        if (done())
            return kCycleNever;
        // A predicate wait polls every cycle.
        return pred_ ? clock_.now() : wakeAt_;
    }

    /** True when the hart can make progress this cycle. */
    bool
    runnable() const
    {
        if (done() || clock_.now() < wakeAt_)
            return false;
        return !pred_ || pred_();
    }

    /**
     * Resume the thread if its wake condition is satisfied. Returns true
     * when the coroutine made progress this cycle.
     */
    bool
    tick()
    {
        if (!runnable())
            return false;
        pred_.reset();
        resume();
        return true;
    }

    /** Rethrow any exception that escaped the root coroutine. */
    void
    checkError() const
    {
        if (root_.valid() && root_.done()) {
            // await_resume is non-const; poke the promise directly.
            auto h = std::coroutine_handle<
                CoTask<void>::promise_type>::from_address(
                root_.handle().address());
            if (h.promise().error)
                std::rethrow_exception(h.promise().error);
        }
    }

    /** Context of the coroutine currently being resumed. */
    static HartContext *current() { return s_current; }

    const Clock &clock() const { return clock_; }

    // -- Interface used by awaitables (via current()) --

    void
    suspendFor(Cycle cycles, std::coroutine_handle<> h)
    {
        resumeNext_ = h;
        wakeAt_ = clock_.now() + cycles;
        pred_ = nullptr;
    }

    void
    suspendUntil(Predicate pred, std::coroutine_handle<> h)
    {
        resumeNext_ = h;
        wakeAt_ = clock_.now() + 1;
        pred_ = pred;
    }

  private:
    void
    resume()
    {
        HartContext *prev = s_current;
        s_current = this;
        auto h = resumeNext_;
        resumeNext_ = nullptr;
        h.resume();
        s_current = prev;
        if (root_.done()) {
            finished_ = true;
            checkError();
        }
    }

    static inline thread_local HartContext *s_current = nullptr;

    const Clock &clock_;
    CoTask<void> root_;
    std::coroutine_handle<> resumeNext_ = nullptr;
    Cycle wakeAt_ = 0;
    bool finished_ = true; ///< no root installed counts as done
    Predicate pred_;
};

/** Awaitable: advance this hart's time by a fixed number of cycles. */
struct Delay
{
    Cycle cycles;

    bool await_ready() const noexcept { return cycles == 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        HartContext *ctx = HartContext::current();
        if (!ctx)
            panic("Delay awaited outside a HartContext");
        ctx->suspendFor(cycles, h);
    }

    void await_resume() const noexcept {}
};

/** Awaitable: poll a predicate once per cycle until it holds. The
 *  predicate is stored inline (small trivially-copyable captures only),
 *  so suspending never allocates. */
struct WaitUntil
{
    HartContext::Predicate pred;

    bool await_ready() const { return pred(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        HartContext *ctx = HartContext::current();
        if (!ctx)
            panic("WaitUntil awaited outside a HartContext");
        ctx->suspendUntil(pred, h);
    }

    void await_resume() const noexcept {}
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_COTASK_HH
