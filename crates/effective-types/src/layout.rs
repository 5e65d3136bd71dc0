//! The layout function `L` (paper Figure 2) and sub-object bounds helpers.
//!
//! Given an allocation (dynamic) type `T` and a byte offset `k`, the layout
//! function returns the set of valid sub-objects `⟨U, δ⟩` located at `p + k`
//! for a pointer `p` to the base of the allocation: `U` is the sub-object's
//! type and `δ` the distance (in bytes) from `p + k` back to the sub-object's
//! base.  The rules implemented here are exactly Figure 2 (a)–(h):
//!
//! * (a) `L(T, 0) ∋ ⟨T, 0⟩`
//! * (b) `L(T, sizeof(T)) ∋ ⟨T, sizeof(T)⟩` (one-past-the-end pointers,
//!   C11 §6.5.6 ¶7–8)
//! * (c) `L(T[N], k) ⊇ L(T, k mod sizeof(T))`
//! * (d) `L(T[N], k) ∋ ⟨T[N], k⟩` if `k mod sizeof(T) = 0`
//! * (e)/(f) struct/class members (bases are implicit embedded members)
//! * (g) union members (offset 0)
//! * (h) `L(FREE, k) = {⟨FREE, 0⟩}`
//!
//! Offsets that land at an element boundary of an array are simultaneously
//! the start of element *i* and one-past-the-end of element *i−1*; both
//! sub-objects are reported (this is how the paper derives `⟨int, 4⟩` for
//! `L(T, 12)` in Example 2).

use crate::registry::{TypeError, TypeRegistry};
use crate::types::{RecordKind, Type};

/// A sub-object returned by the layout function: the sub-object's type and
/// the distance `δ` from the queried pointer back to the sub-object's base.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SubObject {
    /// The sub-object's (complete) type.
    pub ty: Type,
    /// Distance in bytes from the queried pointer (`p + k`) to the
    /// sub-object's base; `0` when the pointer is at the base,
    /// `sizeof(ty)` when the pointer is one-past-the-end.
    pub delta: u64,
}

impl SubObject {
    /// Construct a sub-object entry.
    pub fn new(ty: Type, delta: u64) -> Self {
        SubObject { ty, delta }
    }

    /// Whether this entry corresponds to a one-past-the-end pointer
    /// (Fig. 2 rule (b)); such entries are matched *last* by the
    /// tie-breaking rules of §5.
    pub fn is_end_pointer(&self, registry: &TypeRegistry) -> bool {
        match registry.size_of(&self.ty) {
            Ok(sz) => sz > 0 && self.delta == sz,
            Err(_) => false,
        }
    }

    /// The sub-object bounds for a pointer `q` at the queried offset, as the
    /// half-open byte interval `[q − δ, q − δ + sizeof(U))` (the paper's
    /// `type_bounds` helper, §3).  Returned relative to `q`, i.e. as
    /// `(-δ, -δ + sizeof(U))`.
    pub fn relative_bounds(&self, registry: &TypeRegistry) -> Result<(i64, i64), TypeError> {
        let size = registry.size_of(&self.ty)? as i64;
        let delta = self.delta as i64;
        Ok((-delta, -delta + size))
    }
}

/// Maximum recursion depth of the layout computation (defence against
/// pathological inputs; realistic C/C++ types nest far below this).
const MAX_LAYOUT_DEPTH: u32 = 256;

/// Compute `L(ty, offset)`: every valid sub-object at byte offset `offset`
/// from the base of an object of dynamic type `ty`.
///
/// Offsets outside `0 ..= sizeof(ty)` yield an empty set (the caller — the
/// runtime's `type_check` — normalises offsets into range first, because the
/// allocation's *effective* dynamic type is `ty[N]` for `N` determined by the
/// allocation size).
///
/// # Errors
///
/// Returns [`TypeError`] if `ty` (or a member) references an undefined
/// record tag or is incomplete.
pub fn layout_at(
    registry: &TypeRegistry,
    ty: &Type,
    offset: u64,
) -> Result<Vec<SubObject>, TypeError> {
    let mut out = Vec::new();
    collect(registry, ty, offset, MAX_LAYOUT_DEPTH, &mut out)?;
    dedup(&mut out);
    Ok(out)
}

fn collect(
    registry: &TypeRegistry,
    ty: &Type,
    k: u64,
    depth: u32,
    out: &mut Vec<SubObject>,
) -> Result<(), TypeError> {
    if depth == 0 {
        return Ok(());
    }

    // Rule (h): deallocated memory.
    if ty.is_free() {
        out.push(SubObject::new(Type::Free, 0));
        return Ok(());
    }

    let size = registry.size_of(ty)?;

    // Rules (a) and (b).
    if k == 0 {
        out.push(SubObject::new(ty.clone(), 0));
    }
    if k == size && size > 0 {
        out.push(SubObject::new(ty.clone(), size));
    }
    if k > size {
        return Ok(());
    }

    match ty {
        Type::Array(elem, n) => {
            let esize = registry.size_of(elem)?;
            if esize == 0 || *n == 0 {
                return Ok(());
            }
            // Rule (d): the pointer also designates the containing array
            // itself whenever it sits on an element boundary (and is not
            // past the end, which rules (a)/(b) already cover).
            if k.is_multiple_of(esize) && k > 0 && k < size {
                out.push(SubObject::new(ty.clone(), k));
            }
            // Rule (c): recurse into the element the offset falls in.
            if k < size {
                let rem = k % esize;
                collect(registry, elem, rem, depth - 1, out)?;
                // An offset on an element boundary is simultaneously
                // one-past-the-end of the previous element.
                if rem == 0 && k > 0 {
                    collect(registry, elem, esize, depth - 1, out)?;
                }
            } else {
                // k == size: one-past-the-end of the last element.
                collect(registry, elem, esize, depth - 1, out)?;
            }
        }
        Type::Record(kind, tag) => {
            let layout = registry.layout(tag)?.clone();
            match kind {
                RecordKind::Union => {
                    // Rule (g): every member at offset 0.
                    for member in &layout.members {
                        if k <= member.size {
                            collect(registry, &member.ty, k, depth - 1, out)?;
                        }
                    }
                }
                RecordKind::Struct | RecordKind::Class => {
                    // Rules (e)/(f): members and embedded bases.
                    for member in &layout.members {
                        if k >= member.offset && k <= member.offset + member.size {
                            collect(registry, &member.ty, k - member.offset, depth - 1, out)?;
                        }
                    }
                }
            }
        }
        // Fundamental types, enums, pointers: rules (a)/(b) already applied.
        _ => {}
    }
    Ok(())
}

fn dedup(subobjects: &mut Vec<SubObject>) {
    let mut seen = std::collections::HashSet::new();
    subobjects.retain(|so| seen.insert((so.ty.clone(), so.delta)));
}

/// Compute the absolute sub-object bounds for a pointer value `q` (an
/// address) matching sub-object `so`: the paper's
/// `type_bounds(q, ⟨U, δ⟩) = q − δ .. q − δ + sizeof(U)`.
pub fn type_bounds(
    registry: &TypeRegistry,
    q: u64,
    so: &SubObject,
) -> Result<(u64, u64), TypeError> {
    let size = registry.size_of(&so.ty)?;
    let lo = q.saturating_sub(so.delta);
    Ok((lo, lo + size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{FieldDef, RecordDef};

    fn contains(set: &[SubObject], ty: &Type, delta: u64) -> bool {
        set.iter().any(|so| so.ty == *ty && so.delta == delta)
    }

    /// Registry for the paper's running example (Example 1/2).
    fn paper_registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "S",
            vec![
                FieldDef::new("a", Type::array(Type::int(), 3)),
                FieldDef::new("s", Type::char_ptr()),
            ],
        ))
        .unwrap();
        reg.define(RecordDef::struct_(
            "T",
            vec![
                FieldDef::new("f", Type::float()),
                FieldDef::new("t", Type::struct_("S")),
            ],
        ))
        .unwrap();
        reg
    }

    #[test]
    fn fundamental_type_layout_matches_paper_int_example() {
        // L(int, 0) = {⟨int, 0⟩}, L(int, 4) = {⟨int, 4⟩}, else ∅.
        let reg = TypeRegistry::new();
        let l0 = layout_at(&reg, &Type::int(), 0).unwrap();
        assert_eq!(l0, vec![SubObject::new(Type::int(), 0)]);
        let l4 = layout_at(&reg, &Type::int(), 4).unwrap();
        assert_eq!(l4, vec![SubObject::new(Type::int(), 4)]);
        assert!(layout_at(&reg, &Type::int(), 2).unwrap().is_empty());
        assert!(layout_at(&reg, &Type::int(), 5).unwrap().is_empty());
    }

    #[test]
    fn paper_example2_offset_of_t_member() {
        // The SysV layout places T::t at offset 8 (the paper's illustration
        // uses offset 4); the *set* of sub-objects at that offset matches
        // Example 2's L(T, 4) modulo the shifted base.
        let reg = paper_registry();
        let t = Type::struct_("T");
        let off = reg.offset_of("T", "t").unwrap();
        let l = layout_at(&reg, &t, off).unwrap();
        assert!(contains(&l, &Type::struct_("S"), 0));
        assert!(contains(&l, &Type::array(Type::int(), 3), 0));
        assert!(contains(&l, &Type::int(), 0));
        // One-past-the-end of T::f (float, delta = sizeof(float)) is only
        // present when f ends exactly where t begins; with the 8-byte
        // alignment of S there is padding, so the float end-pointer appears
        // at offset 4 instead.
        let l4 = layout_at(&reg, &t, 4).unwrap();
        assert!(contains(&l4, &Type::float(), 4));
    }

    #[test]
    fn paper_example2_interior_array_element() {
        // Example 2: L(T, 12) = {⟨int[3], 8⟩, ⟨int, 0⟩, ⟨int, 4⟩}
        // With SysV offsets T::t is at 8, so the analogous offset is
        // 8 (t) + 8 (a[2]) = 16.
        let reg = paper_registry();
        let t = Type::struct_("T");
        let k = reg.offset_of("T", "t").unwrap() + 8;
        let l = layout_at(&reg, &t, k).unwrap();
        assert!(contains(&l, &Type::array(Type::int(), 3), 8));
        assert!(contains(&l, &Type::int(), 0));
        assert!(contains(&l, &Type::int(), 4));
        // And nothing matches double.
        assert!(!l.iter().any(|so| so.ty == Type::double()));
    }

    #[test]
    fn example2_faithful_offsets_with_packed_variant() {
        // A variant of the paper's T whose members all have 4-byte
        // alignment reproduces Example 2's literal offsets (t at 4,
        // t.a at 4, t.s at 16).
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "S4",
            vec![
                FieldDef::new("a", Type::array(Type::int(), 3)),
                FieldDef::new("s", Type::int()), // stand-in with align 4
            ],
        ))
        .unwrap();
        reg.define(RecordDef::struct_(
            "T4",
            vec![
                FieldDef::new("f", Type::float()),
                FieldDef::new("t", Type::struct_("S4")),
            ],
        ))
        .unwrap();
        assert_eq!(reg.offset_of("T4", "t").unwrap(), 4);
        let t = Type::struct_("T4");
        let l4 = layout_at(&reg, &t, 4).unwrap();
        // L(T, 4) = {⟨S, 0⟩, ⟨int[3], 0⟩, ⟨int, 0⟩, ⟨float, 4⟩}
        assert!(contains(&l4, &Type::struct_("S4"), 0));
        assert!(contains(&l4, &Type::array(Type::int(), 3), 0));
        assert!(contains(&l4, &Type::int(), 0));
        assert!(contains(&l4, &Type::float(), 4));

        let l12 = layout_at(&reg, &t, 12).unwrap();
        // L(T, 12) = {⟨int[3], 8⟩, ⟨int, 0⟩, ⟨int, 4⟩}
        assert!(contains(&l12, &Type::array(Type::int(), 3), 8));
        assert!(contains(&l12, &Type::int(), 0));
        assert!(contains(&l12, &Type::int(), 4));
        assert!(!contains(&l12, &Type::struct_("S4"), 0));
    }

    #[test]
    fn array_boundary_reports_start_and_end_of_adjacent_elements() {
        let reg = TypeRegistry::new();
        let arr = Type::array(Type::int(), 100);
        let l = layout_at(&reg, &arr, 40).unwrap();
        assert!(contains(&l, &Type::int(), 0)); // start of element 10
        assert!(contains(&l, &Type::int(), 4)); // end of element 9
        assert!(contains(&l, &arr, 40)); // rule (d): the array itself
    }

    #[test]
    fn array_end_is_one_past_the_end() {
        let reg = TypeRegistry::new();
        let arr = Type::array(Type::int(), 4);
        let l = layout_at(&reg, &arr, 16).unwrap();
        assert!(contains(&l, &arr, 16)); // rule (b) for the array
        assert!(contains(&l, &Type::int(), 4)); // end of the last element
                                                // Nothing beyond the end.
        assert!(layout_at(&reg, &arr, 17).unwrap().is_empty());
    }

    #[test]
    fn misaligned_offset_into_array_matches_nothing() {
        let reg = TypeRegistry::new();
        let arr = Type::array(Type::int(), 8);
        assert!(layout_at(&reg, &arr, 2).unwrap().is_empty());
        assert!(layout_at(&reg, &arr, 7).unwrap().is_empty());
    }

    #[test]
    fn offset_into_struct_padding_matches_nothing() {
        // struct Padded { char c; /* 3 bytes padding */ int i; }
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "Padded",
            vec![
                FieldDef::new("c", Type::char_()),
                FieldDef::new("i", Type::int()),
            ],
        ))
        .unwrap();
        let t = Type::struct_("Padded");
        let l2 = layout_at(&reg, &t, 2).unwrap();
        // Offset 2 is padding: no sub-object starts or ends there (char ends
        // at 1, int starts at 4).  This is exactly the gcc finding of §6.1
        // (overflow into structure padding).
        assert!(l2.is_empty());
    }

    #[test]
    fn union_members_overlap() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::union_(
            "U",
            vec![
                FieldDef::new("a", Type::array(Type::float(), 10)),
                FieldDef::new("b", Type::array(Type::float(), 20)),
            ],
        ))
        .unwrap();
        let u = Type::union_("U");
        let l = layout_at(&reg, &u, 0).unwrap();
        assert!(contains(&l, &Type::array(Type::float(), 10), 0));
        assert!(contains(&l, &Type::array(Type::float(), 20), 0));
        assert!(contains(&l, &Type::float(), 0));
        // Offset 40 is the end of `a` but still inside `b`.
        let l40 = layout_at(&reg, &u, 40).unwrap();
        assert!(contains(&l40, &Type::array(Type::float(), 10), 40));
        assert!(contains(&l40, &Type::array(Type::float(), 20), 40));
        assert!(contains(&l40, &Type::float(), 0));
    }

    #[test]
    fn free_type_layout_is_free_at_every_offset() {
        let reg = TypeRegistry::new();
        for k in [0u64, 1, 7, 100, 12345] {
            let l = layout_at(&reg, &Type::Free, k).unwrap();
            assert_eq!(l, vec![SubObject::new(Type::Free, 0)]);
        }
    }

    #[test]
    fn class_inheritance_exposes_base_subobject() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::class(
            "Base",
            vec![],
            vec![FieldDef::new("x", Type::int())],
            false,
        ))
        .unwrap();
        reg.define(RecordDef::class(
            "Derived",
            vec![crate::registry::BaseDef::new("Base")],
            vec![FieldDef::new("y", Type::float())],
            false,
        ))
        .unwrap();
        let d = Type::class("Derived");
        let l0 = layout_at(&reg, &d, 0).unwrap();
        assert!(contains(&l0, &Type::class("Derived"), 0));
        assert!(contains(&l0, &Type::class("Base"), 0));
        assert!(contains(&l0, &Type::int(), 0));
        // Derived's own field is NOT at offset 0.
        assert!(!contains(&l0, &Type::float(), 0));
        let l4 = layout_at(&reg, &d, 4).unwrap();
        assert!(contains(&l4, &Type::float(), 0));
    }

    #[test]
    fn relative_bounds_and_type_bounds_agree() {
        let reg = paper_registry();
        let so = SubObject::new(Type::array(Type::int(), 3), 8);
        assert_eq!(so.relative_bounds(&reg).unwrap(), (-8, 4));
        // For a pointer at address 1000: bounds are 992..1004.
        assert_eq!(type_bounds(&reg, 1000, &so).unwrap(), (992, 1004));
    }

    #[test]
    fn end_pointer_detection() {
        let reg = TypeRegistry::new();
        assert!(SubObject::new(Type::int(), 4).is_end_pointer(&reg));
        assert!(!SubObject::new(Type::int(), 0).is_end_pointer(&reg));
        assert!(!SubObject::new(Type::int(), 2).is_end_pointer(&reg));
    }

    #[test]
    fn nested_array_of_structs() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "Pair",
            vec![
                FieldDef::new("a", Type::int()),
                FieldDef::new("b", Type::int()),
            ],
        ))
        .unwrap();
        let arr = Type::array(Type::struct_("Pair"), 4);
        // Offset 12: element 1, field b.
        let l = layout_at(&reg, &arr, 12).unwrap();
        assert!(contains(&l, &Type::int(), 0)); // Pair::b of element 1
        assert!(contains(&l, &Type::int(), 4)); // end of Pair::a of element 1
        assert!(!contains(&l, &Type::struct_("Pair"), 0));
        // Offset 8: start of element 1.
        let l8 = layout_at(&reg, &arr, 8).unwrap();
        assert!(contains(&l8, &Type::struct_("Pair"), 0));
        assert!(contains(&l8, &arr, 8));
        assert!(contains(&l8, &Type::struct_("Pair"), 8)); // end of element 0
    }

    #[test]
    fn deep_nesting_is_flattened() {
        // The layout is a flattened representation (paper, after Example 2):
        // sub-objects three levels deep are reported directly.
        let reg = paper_registry();
        let t = Type::struct_("T");
        let toff = reg.offset_of("T", "t").unwrap();
        let l = layout_at(&reg, &t, toff + 4).unwrap();
        // p->t.a[1] is three levels deep (T -> S -> int[3] -> int).
        assert!(contains(&l, &Type::int(), 0));
    }
}
