/**
 * @file
 * Move-only callable with fixed-size inline storage.
 *
 * The event queue schedules millions of continuations per sweep row;
 * wrapping each one in a std::function costs a heap allocation the
 * moment the capture outgrows the library's small-object buffer
 * (16 bytes on libstdc++). InlineFunction raises that budget to
 * InlineBytes so every continuation the simulator actually schedules
 * is stored in-place inside the event itself. The budget holds
 * because no continuation nests another one: state that outlives an
 * event (a miss, an invalidation fan-in, a broadcast join) is parked
 * in a slot or pool entry and the event captures only its id (see
 * docs/perf.md, "The slot discipline").
 *
 * InlineFunction<void()> is the event callback; other signatures
 * (e.g. InlineFunction<void(bool)> for an invalidation fan-in) hold
 * continuations parked in pool entries.
 *
 * Callables larger than InlineBytes (or over-aligned, or with a
 * throwing move) still work -- they fall back to a single heap
 * allocation, flagged via onHeap() so benchmarks and tests can assert
 * that the hot paths never pay for one.
 */

#ifndef C3DSIM_SIM_INLINE_FUNCTION_HH
#define C3DSIM_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hh"
#include "sim/slab.hh"

namespace c3d
{

template <typename Sig = void()>
class InlineFunction;

/** Move-only `void(Args...)` callable with inline small-buffer storage. */
template <typename... Args>
class InlineFunction<void(Args...)>
{
  public:
    /**
     * Inline capture budget, in bytes: a `this` pointer, a block
     * address and a handful of scalars or slot ids, with room for
     * one small caller continuation (such as a protocol's probe
     * callback) wrapped around them. See docs/perf.md before growing
     * a capture past this.
     */
    static constexpr std::size_t InlineBytes = 64;
    static constexpr std::size_t InlineAlign = 16;

    /** Whether a callable of type @p Fn is stored without the heap. */
    template <typename Fn>
    static constexpr bool fitsInline =
        sizeof(Fn) <= InlineBytes && alignof(Fn) <= InlineAlign &&
        std::is_nothrow_move_constructible_v<Fn>;

    InlineFunction() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &,
                                        Args...>>>
    InlineFunction(F &&f) // NOLINT: implicit by design
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { take(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    /**
     * Replace the held callable with @p f, built directly in this
     * object's storage: no temporary InlineFunction, so a capture
     * passed down as a forwarding reference is moved exactly once,
     * from the caller's closure into its final home. Another
     * InlineFunction is relocated rather than wrapped.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "InlineFunction is move-only");
            *this = std::move(f);
        } else {
            reset();
            construct(std::forward<F>(f));
        }
    }

    /** Destroy the held callable, leaving this empty. */
    void
    reset() noexcept
    {
        if (ops && ops->destroy)
            ops->destroy(storage);
        ops = nullptr;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    void
    operator()(Args... args)
    {
        c3d_assert(ops, "invoking an empty InlineFunction");
        ops->invoke(storage, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return ops != nullptr; }

    /** True when the callable spilled to a heap allocation. */
    bool onHeap() const noexcept { return ops && ops->heap; }

  private:
    /**
     * Per-callable-type operations. A null @c relocate means the
     * storage may be copied byte for byte (a trivially copyable
     * capture, or the heap fallback's pointer); a null @c destroy
     * means there is nothing to destroy. Most simulator captures are
     * ids, scalars and pointers, so moving an event costs a fixed
     * 64-byte copy and no indirect call.
     */
    struct Ops
    {
        void (*invoke)(void *, Args...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool heap;
    };

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>) {
            ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
            ops = &InlineModel<Fn>::ops;
        } else {
            // Spilled captures recycle through the event-path slab
            // (fixed small sizes, freed at event rates, possibly on
            // a different kernel thread than the allocating one).
            // Over-aligned callables keep plain new, which honors
            // extended alignment.
            Fn *p;
            if constexpr (HeapModel<Fn>::slabBacked) {
                void *mem = slab::alloc(sizeof(Fn));
                try {
                    p = ::new (mem) Fn(std::forward<F>(f));
                } catch (...) {
                    slab::free(mem, sizeof(Fn));
                    throw;
                }
            } else {
                p = new Fn(std::forward<F>(f));
            }
            ::new (static_cast<void *>(storage)) (Fn *)(p);
            ops = &HeapModel<Fn>::ops;
        }
    }

    /** Relocate @p other's callable into this (empty) object. */
    void
    take(InlineFunction &other) noexcept
    {
        ops = other.ops;
        if (ops) {
            if (ops->relocate)
                ops->relocate(storage, other.storage);
            else
                std::memcpy(storage, other.storage, InlineBytes);
        }
        other.ops = nullptr;
    }

    template <typename Fn>
    struct InlineModel
    {
        static Fn *at(void *s) { return std::launder(
            reinterpret_cast<Fn *>(s)); }
        static void
        invoke(void *s, Args... args)
        {
            (*at(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) Fn(std::move(*at(src)));
            at(src)->~Fn();
        }
        static void destroy(void *s) noexcept { at(s)->~Fn(); }
        static constexpr bool trivial = std::is_trivially_copyable_v<Fn>;
        static constexpr Ops ops{&invoke, trivial ? nullptr : &relocate,
                                 trivial ? nullptr : &destroy, false};
    };

    template <typename Fn>
    struct HeapModel
    {
        static constexpr bool slabBacked =
            alignof(Fn) <= alignof(std::max_align_t);
        static Fn *&at(void *s) { return *std::launder(
            reinterpret_cast<Fn **>(s)); }
        static void
        invoke(void *s, Args... args)
        {
            (*at(s))(std::forward<Args>(args)...);
        }
        static void
        destroy(void *s) noexcept
        {
            Fn *p = at(s);
            if constexpr (slabBacked) {
                p->~Fn();
                slab::free(p, sizeof(Fn));
            } else {
                delete p;
            }
        }
        // The storage holds only the pointer: relocation is a copy.
        static constexpr Ops ops{&invoke, nullptr, &destroy, true};
    };

    const Ops *ops = nullptr;
    alignas(InlineAlign) unsigned char storage[InlineBytes];
};

} // namespace c3d

#endif // C3DSIM_SIM_INLINE_FUNCTION_HH
