/**
 * @file
 * InlineFn: a move-only callable wrapper with small-buffer storage.
 *
 * The event queue and the memory path store one callable per pending
 * event or transaction. std::function allocates for any capture
 * larger than two pointers and copies its target on every copy;
 * InlineFn keeps captures of up to Capacity bytes inside the object
 * and only falls back to the heap for larger (or throwing-move)
 * callables. Trivially copyable captures relocate with a plain
 * memcpy.
 */

#ifndef QTENON_SIM_INLINE_FN_HH
#define QTENON_SIM_INLINE_FN_HH

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace qtenon::sim {

template <typename Sig, std::size_t Capacity = 48>
class InlineFn;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity>
{
  public:
    /** Whether a callable of type @p F is stored without allocating. */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(std::decay_t<F>) <= Capacity &&
        alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<std::decay_t<F>>;

    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {}

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, InlineFn> &&
                 std::is_invocable_r_v<R, std::decay_t<F> &, Args...>)
    InlineFn(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InlineFn(InlineFn &&o) noexcept { moveFrom(o); }

    InlineFn &
    operator=(InlineFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** Replace the target with @p f, constructed in place. */
    template <typename F>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "InlineFn is move-only");
            *this = std::move(f);
        } else {
            reset();
            construct(std::forward<F>(f));
        }
    }

    /** Destroy the target, leaving the wrapper empty. */
    void
    reset() noexcept
    {
        if (_manage)
            _manage(nullptr, _buf);
        _invoke = nullptr;
        _manage = nullptr;
    }

    explicit operator bool() const noexcept { return _invoke != nullptr; }

    R
    operator()(Args... args) const
    {
        return _invoke(_buf, std::forward<Args>(args)...);
    }

  private:
    using Invoker = R (*)(void *, Args &&...);
    /** Relocate the target into @p dst, or destroy it if null. */
    using Manager = void (*)(void *dst, void *src);

    template <typename D>
    static D *
    target(void *buf)
    {
        if constexpr (fitsInline<D>)
            return std::launder(static_cast<D *>(buf));
        else
            return *static_cast<D **>(buf);
    }

    template <typename D>
    static R
    invokeTarget(void *buf, Args &&...args)
    {
        return std::invoke(*target<D>(buf), std::forward<Args>(args)...);
    }

    template <typename D>
    static void
    manageTarget(void *dst, void *src)
    {
        if constexpr (fitsInline<D>) {
            D *p = target<D>(src);
            if (dst)
                ::new (dst) D(std::move(*p));
            p->~D();
        } else if (dst) {
            ::new (dst) D *(*static_cast<D **>(src));
        } else {
            delete *static_cast<D **>(src);
        }
    }

    template <typename F>
    void
    construct(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
            // Trivial captures need no manager: moving is a memcpy
            // of the buffer and destruction is a no-op.
            if constexpr (!(std::is_trivially_copyable_v<D> &&
                            std::is_trivially_destructible_v<D>))
                _manage = &manageTarget<D>;
        } else {
            ::new (static_cast<void *>(_buf))
                D *(new D(std::forward<F>(f)));
            _manage = &manageTarget<D>;
        }
        _invoke = &invokeTarget<D>;
    }

    void
    moveFrom(InlineFn &o) noexcept
    {
        if (o._manage)
            o._manage(_buf, o._buf);
        else if (o._invoke)
            std::memcpy(_buf, o._buf, Capacity);
        _invoke = o._invoke;
        _manage = o._manage;
        o._invoke = nullptr;
        o._manage = nullptr;
    }

    alignas(std::max_align_t) mutable unsigned char _buf[Capacity];
    Invoker _invoke = nullptr;
    Manager _manage = nullptr;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_INLINE_FN_HH
