/**
 * @file
 * InlineFn: a move-only `void(Args...)` callable with fixed inline
 * storage.
 *
 * The event kernel schedules millions of small closures per run;
 * `std::function`'s small-buffer optimization (16 bytes in libstdc++)
 * is far too small for the protocol continuations (a DoneFn plus a
 * few scalars, or a pool-slot pointer plus context), so every
 * schedule() paid a heap allocation. InlineFn stores the callable
 * in-place — callables larger than the capacity are rejected at
 * compile time, so a grown capture list is a build error rather than
 * a silent return of per-event malloc traffic.
 *
 * Only `void`-returning signatures are provided: event actions take
 * no arguments, memory-access completions take the access outcome.
 */

#ifndef SPP_COMMON_INLINE_FN_HH
#define SPP_COMMON_INLINE_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace spp {

template <std::size_t Capacity, typename... Args>
class InlineFn
{
  public:
    InlineFn() = default;
    InlineFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &,
                                        Args...>>>
    InlineFn(F &&fn)
    {
        construct(std::forward<F>(fn));
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()(Args... args)
    {
        ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /**
     * Build @p fn in this (empty) InlineFn's storage: a callable is
     * constructed in place from the forwarded argument, so an rvalue
     * costs exactly one move; another InlineFn is relocated into it.
     * This is how the event kernel fills a pooled event node without
     * routing the closure through a temporary.
     */
    template <typename F>
    void
    emplace(F &&fn)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "InlineFn is move-only");
            moveFrom(fn);
        } else {
            construct(std::forward<F>(fn));
        }
    }

    /**
     * Invoke the callable and destroy it in place, through one
     * indirect call; the InlineFn is empty afterwards. The callable is
     * destroyed even if it throws.
     */
    void
    consume(Args... args)
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        ops->invokeDestroy(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *, Args...);
        void (*relocate)(void *dst, void *src); ///< Move + destroy src.
        void (*destroy)(void *);
        void (*invokeDestroy)(void *, Args...); ///< Call, then destroy.
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p, Args... args) {
            (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn *s = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
        [](void *p, Args... args) {
            Fn *f = static_cast<Fn *>(p);
            struct Destroy
            {
                Fn *f;
                ~Destroy() { f->~Fn(); }
            } guard{f};
            (*f)(std::forward<Args>(args)...);
        },
    };

    template <typename F>
    void
    construct(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "callable exceeds InlineFn capacity; grow the "
                      "capacity or shrink the capture list");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callable");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    void
    moveFrom(InlineFn &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace spp

#endif // SPP_COMMON_INLINE_FN_HH
