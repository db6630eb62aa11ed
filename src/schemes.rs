//! The scheme registry: every reclamation scheme of the workspace, listed once.
//!
//! The Record Manager makes the reclamation scheme a type parameter, so swapping schemes
//! is a one-line type change (paper, Section 6).  This module makes *covering* every
//! scheme a one-line change too: [`for_each_scheme!`](crate::for_each_scheme) holds the
//! only list of schemes, one `id: Marker = reclaimer` line each, and expands a caller's
//! generic function `f::<S: Scheme>` either into one `#[test]` per scheme or into one
//! runtime `match` arm per scheme id.  The experiment driver, the Figure 2 table, the
//! `reclaimer_swap` example and the per-scheme test matrices all iterate it.
//!
//! The registry restates nothing a scheme already reports: the display name, the
//! Figure 2 row and the allocator requirement are read from the scheme's own
//! [`Reclaimer`] impl ([`Scheme::name`], [`Scheme::properties`], [`Scheme::TYPE_STABLE`]).
//! What it adds is a *default memory*: the type-stable page pool ([`PageMemory`]) for a
//! scheme that needs one, `malloc` behind per-thread pools ([`MallocMemory`]) for the
//! rest.  [`On`] recomposes a scheme with other memory.
//!
//! # Adding a scheme
//!
//! Write the scheme's crate, re-export it from the umbrella crate, and add one line to
//! the list in `for_each_scheme!` (append `on PageMemory` if its reads need a type-stable
//! allocator).  Every driver and test matrix above picks it up; the benchmark under
//! `benchmark/` keeps its own list.

use std::marker::PhantomData;

use crate::debra::{
    Allocator, AllocatorRequirement, Domain, Pool, Reclaimer, RecordManager, SchemeProperties,
};
use crate::smr_alloc::{SystemAllocator, ThreadPool};
use crate::smr_pagepool::{PageAllocator, PagePool};

/// A memory configuration: the pool and the allocator a Record Manager composes with.
pub trait Memory: 'static {
    /// The pool of records of type `T`.
    type Pool<T: Send + 'static>: Pool<T>;
    /// The allocator of records of type `T`.
    type Allocator<T: Send + 'static>: Allocator<T>;
}

/// `malloc` behind per-thread pools: the default memory of every scheme that accepts any
/// allocator.
#[derive(Debug)]
pub struct MallocMemory;

impl Memory for MallocMemory {
    type Pool<T: Send + 'static> = ThreadPool<T>;
    type Allocator<T: Send + 'static> = SystemAllocator<T>;
}

/// The type-stable page allocator behind its magazine pool (`smr-pagepool`): the only
/// memory a scheme with [`AllocatorRequirement::TypeStable`] may run on.
#[derive(Debug)]
pub struct PageMemory;

impl Memory for PageMemory {
    type Pool<T: Send + 'static> = PagePool<T>;
    type Allocator<T: Send + 'static> = PageAllocator<T>;
}

/// A reclamation scheme together with its default memory.  Implemented by the marker
/// types [`for_each_scheme!`](crate::for_each_scheme) defines, and by [`On`].
pub trait Scheme: 'static {
    /// The scheme's reclaimer for records of type `T`.
    type Reclaimer<T: Send + 'static>: Reclaimer<T>;
    /// The pool of records of type `T`.
    type Pool<T: Send + 'static>: Pool<T>;
    /// The allocator of records of type `T`.
    type Allocator<T: Send + 'static>: Allocator<T>;

    /// `true` if the scheme's reads are machine-safe only over a type-stable allocator
    /// (its `Reclaimer::ALLOCATOR_REQUIREMENT`).
    const TYPE_STABLE: bool = matches!(
        <Self::Reclaimer<u8> as Reclaimer<u8>>::ALLOCATOR_REQUIREMENT,
        AllocatorRequirement::TypeStable
    );

    /// The scheme's display name (its `Reclaimer::name`).
    fn name() -> &'static str {
        <Self::Reclaimer<u8> as Reclaimer<u8>>::name()
    }

    /// The scheme's Figure 2 row (its `Reclaimer::properties`).
    fn properties() -> SchemeProperties {
        <Self::Reclaimer<u8> as Reclaimer<u8>>::properties()
    }

    /// `false` for a scheme that never hands a retired record back (None).  Read from
    /// its Figure 2 row: a scheme that needs no code per retired record reclaims nothing.
    fn reclaims() -> bool {
        Self::properties().code_modifications.per_retired_record
    }
}

/// Scheme `S`'s reclaimer composed with memory `M` instead of `S`'s default.
#[derive(Debug)]
pub struct On<S, M>(PhantomData<fn() -> (S, M)>);

impl<S: Scheme, M: Memory> Scheme for On<S, M> {
    type Reclaimer<T: Send + 'static> = S::Reclaimer<T>;
    type Pool<T: Send + 'static> = M::Pool<T>;
    type Allocator<T: Send + 'static> = M::Allocator<T>;
}

/// The Record Manager of scheme `S` for records of type `T`.
pub type Manager<S, T> = RecordManager<
    T,
    <S as Scheme>::Reclaimer<T>,
    <S as Scheme>::Pool<T>,
    <S as Scheme>::Allocator<T>,
>;

/// The safe-layer [`Domain`] of scheme `S` for records of type `T`.
pub type SchemeDomain<S, T> =
    Domain<T, <S as Scheme>::Reclaimer<T>, <S as Scheme>::Pool<T>, <S as Scheme>::Allocator<T>>;

crate::for_each_scheme!(@define);

/// Expands a generic function `f::<S: Scheme>` over every registered scheme.
///
/// * `for_each_scheme!(tests prefix_*: f);` defines one `#[test] fn prefix_<id>()` per
///   scheme, which calls `f::<Marker>()`; `for_each_scheme!(tests prefix_*_suffix: f);`
///   names the rows `prefix_<id>_suffix`.
/// * `for_each_scheme!(match id => f(args...))` is an expression: it calls
///   `f::<Marker>(args...)` for the scheme registered as `id` (a `&str`), and panics on
///   an unregistered id.
///
/// The list inside is the registry: one `id: Marker = reclaimer` line per scheme, where
/// `reclaimer` is a path below this crate and a trailing `on Memory` overrides the
/// default [`MallocMemory`](crate::schemes::MallocMemory).  [`schemes::IDS`] lists the
/// ids in the same order.
///
/// [`schemes::IDS`]: crate::schemes::IDS
#[macro_export]
macro_rules! for_each_scheme {
    (tests $prefix:ident * $($suffix:ident)?: $f:ident) => {
        $crate::for_each_scheme!(@with_list (@tests $prefix [$($suffix)?] $f));
    };
    (match $id:expr => $f:ident $args:tt) => {
        $crate::for_each_scheme!(@with_list (@match ($id) $f $args))
    };
    (@with_list ($($form:tt)*)) => {
        $crate::for_each_scheme! { $($form)* [
            none: NoReclaim = smr_baselines::NoReclaim,
            debra: Debra = debra::Debra,
            debra_plus: DebraPlus = debra::DebraPlus,
            hazard_pointers: HazardPointers = smr_baselines::HazardPointers,
            classic_ebr: ClassicEbr = smr_baselines::ClassicEbr,
            threadscan: ThreadScanLite = smr_baselines::ThreadScanLite,
            ibr: Ibr = smr_ibr::Ibr,
            vbr: Vbr = smr_vbr::Vbr on PageMemory,
        ] }
    };
    (@tests $prefix:ident $suffix:tt $f:ident [$($id:ident: $m:ident = $($r:ident)::+ $(on $mem:ident)?,)*]) => {
        $($crate::for_each_scheme!(@test $prefix $id $suffix $f $m);)*
    };
    (@test $prefix:ident $id:ident [$($suffix:ident)?] $f:ident $m:ident) => {
        $crate::paste::paste! {
            #[test]
            fn [<$prefix $id $($suffix)?>]() {
                $f::<$crate::schemes::$m>()
            }
        }
    };
    (@match ($id:expr) $f:ident $args:tt [$($key:ident: $m:ident = $($r:ident)::+ $(on $mem:ident)?,)*]) => {
        match $id {
            $(stringify!($key) => $f::<$crate::schemes::$m> $args,)*
            other => panic!("no reclamation scheme is registered as {other:?}"),
        }
    };
    (@define) => {
        $crate::for_each_scheme!(@with_list (@define));
    };
    (@define [$($id:ident: $m:ident = $($r:ident)::+ $(on $mem:ident)?,)*]) => {
        /// Every registered scheme id, in registry order.
        pub const IDS: &[&str] = &[$(stringify!($id)),*];
        $(
            #[doc = concat!("Registry entry `", stringify!($id), "`: `", stringify!($($r)::+), "`.")]
            #[derive(Debug)]
            pub struct $m;

            impl Scheme for $m {
                type Reclaimer<T: Send + 'static> = $crate::$($r)::+<T>;
                type Pool<T: Send + 'static> =
                    <$crate::for_each_scheme!(@memory $($mem)?) as Memory>::Pool<T>;
                type Allocator<T: Send + 'static> =
                    <$crate::for_each_scheme!(@memory $($mem)?) as Memory>::Allocator<T>;
            }
        )*
    };
    (@memory) => { $crate::schemes::MallocMemory };
    (@memory $mem:ident) => { $crate::schemes::$mem };
}
