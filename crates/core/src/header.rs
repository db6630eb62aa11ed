//! The per-record header: two atomic words every allocator places in front of a record.
//!
//! Interval- and version-based schemes need per-record metadata — a birth era (IBR, VBR)
//! and a retire era (IBR).  The Record Manager keeps `T` opaque, so the metadata cannot be
//! a field of the data structure's node; instead every allocator lays a record out as
//! [`Headed<T>`] — a [`RecordHeader`] followed by the value — and hands out the pointer to
//! the value.  [`header_of`] walks back from that pointer to the header in O(1), with no
//! lookup, no hashing and no lock.
//!
//! The header is unconditional: every allocator pays its 16 bytes per record (more for
//! over-aligned `T`, whose value starts at the next multiple of its alignment), whether
//! or not the scheme above reads it.  Schemes that do not need it never touch it.

use std::mem::offset_of;
use std::ptr::NonNull;
use std::sync::atomic::AtomicU64;

/// Birth and retire eras of one record.
///
/// A freshly carved header reads `birth = 0, retire = u64::MAX`: "born before every
/// reservation, never retired" — the conservative interval, which overlaps every
/// reservation.  Schemes overwrite the words on their own hooks
/// (`ReclaimerThread::record_allocated`, `retire`); a recycled record keeps its previous
/// life's words until then.
#[repr(C)]
#[derive(Debug)]
pub struct RecordHeader {
    /// Era (or version) at which the record was last handed out.
    pub birth: AtomicU64,
    /// Era at which the record was last retired.
    pub retire: AtomicU64,
}

impl RecordHeader {
    /// A fresh header: `birth = 0, retire = u64::MAX`.
    pub const fn new() -> Self {
        RecordHeader { birth: AtomicU64::new(0), retire: AtomicU64::new(u64::MAX) }
    }
}

impl Default for RecordHeader {
    fn default() -> Self {
        Self::new()
    }
}

/// The memory layout of one record: the header at offset 0, then the value.
#[repr(C)]
#[derive(Debug)]
pub struct Headed<T> {
    header: RecordHeader,
    value: T,
}

impl<T> Headed<T> {
    /// Byte offset of the value inside the slot: 16, or `align_of::<T>()` when that is
    /// larger.
    const VALUE_OFFSET: usize = offset_of!(Headed<T>, value);

    /// A slot holding a fresh header and `value`.
    pub const fn new(value: T) -> Self {
        Headed { header: RecordHeader::new(), value }
    }

    /// Writes a fresh header into `slot`, leaving the value part untouched (for slots
    /// carved out of uninitialized memory).
    ///
    /// # Safety
    ///
    /// `slot` must be valid for writes and aligned for `Headed<T>`.
    pub unsafe fn init_header(slot: *mut Headed<T>) {
        // SAFETY: the header sits at offset 0 (`repr(C)`); the caller vouches for the slot.
        unsafe { slot.cast::<RecordHeader>().write(RecordHeader::new()) };
    }

    /// The record pointer an allocator hands out for `slot`.  Derived from the slot
    /// pointer, so it carries the whole slot's provenance and [`header_of`] may step back
    /// from it.
    pub fn value_ptr(slot: NonNull<Headed<T>>) -> NonNull<T> {
        // SAFETY: `VALUE_OFFSET` stays inside the slot, which does not wrap the address
        // space, so the result is non-null.
        unsafe { NonNull::new_unchecked(slot.as_ptr().wrapping_byte_add(Self::VALUE_OFFSET)) }
            .cast()
    }

    /// The slot a record pointer handed out by [`value_ptr`](Self::value_ptr) lives in.
    fn slot_of(record: NonNull<T>) -> NonNull<Headed<T>> {
        // SAFETY: inverse of `value_ptr`; the slot start is non-null for the same reason.
        unsafe { NonNull::new_unchecked(record.as_ptr().wrapping_byte_sub(Self::VALUE_OFFSET)) }
            .cast()
    }

    /// Moves `value` into its own heap slot with a fresh header and returns the record
    /// pointer (the system allocator's `allocate`).
    pub fn boxed(value: T) -> NonNull<T> {
        let slot = Box::into_raw(Box::new(Headed::new(value)));
        // SAFETY: `Box::into_raw` never returns null.
        Self::value_ptr(unsafe { NonNull::new_unchecked(slot) })
    }

    /// Drops the value of a record made by [`boxed`](Self::boxed) and frees its slot.
    ///
    /// # Safety
    ///
    /// `record` must come from [`boxed`](Self::boxed), be exclusively owned by the
    /// caller, and not be used afterwards.
    pub unsafe fn drop_boxed(record: NonNull<T>) {
        // SAFETY: the slot is the box `boxed` leaked; the caller owns it exclusively.
        drop(unsafe { Box::from_raw(Self::slot_of(record).as_ptr()) });
    }
}

/// The header in front of `record`.
///
/// # Safety
///
/// `record` must have been handed out by one of the workspace's allocators (or by
/// [`Headed::boxed`]) and its slot must still be mapped for the lifetime `'a` — true of
/// every record a reclaimer sees between allocation and reclamation, and of every slot of
/// the type-stable page store forever.
#[inline]
pub unsafe fn header_of<'a, T>(record: NonNull<T>) -> &'a RecordHeader {
    // SAFETY: the header sits at offset 0 of the slot (`repr(C)`); the caller vouches that
    // the slot is live, and the header words are atomics, so shared access is sound.
    unsafe { &*Headed::slot_of(record).as_ptr().cast::<RecordHeader>() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[repr(align(64))]
    struct Wide(u64);

    #[test]
    fn layout_is_header_then_value() {
        assert_eq!(std::mem::size_of::<RecordHeader>(), 16);
        assert_eq!(Headed::<u64>::VALUE_OFFSET, 16);
        assert_eq!(Headed::<u8>::VALUE_OFFSET, 16);
        assert_eq!(Headed::<Wide>::VALUE_OFFSET, 64, "an over-aligned value keeps its alignment");
    }

    #[test]
    fn boxed_record_round_trips_through_its_header() {
        let r = Headed::boxed(Wide(9));
        assert_eq!(r.as_ptr() as usize % 64, 0);
        // SAFETY: `r` is a live boxed record.
        let h = unsafe { header_of(r) };
        assert_eq!(h.birth.load(Ordering::Relaxed), 0, "fresh birth");
        assert_eq!(h.retire.load(Ordering::Relaxed), u64::MAX, "fresh retire");
        h.retire.store(5, Ordering::Relaxed);
        // SAFETY: as above; the value sits untouched behind the header.
        assert_eq!(unsafe { r.as_ref() }.0, 9);
        assert_eq!(unsafe { header_of(r) }.retire.load(Ordering::Relaxed), 5);
        assert_eq!(Headed::value_ptr(Headed::slot_of(r)), r);
        // SAFETY: exclusively owned, not used afterwards.
        unsafe { Headed::drop_boxed(r) };
    }
}
