//! Module-wide, inclusion-based (Andersen-style) points-to analysis with
//! field-sensitive abstract objects.
//!
//! The paper's algorithms lean on alias analysis in three places: branch
//! decomposition must follow data flow *through memory* (a load's value
//! comes from the stores that may write the same object), the CPA scheme
//! must find may-aliases of signed variables (Alg. 2), and interprocedural
//! overflow handling checks whether pointer arguments may point at
//! vulnerable variables (§4.4).
//!
//! # Object model
//!
//! The analysis is context-insensitive but **field-sensitive**: a
//! `field_addr` on a pointer to a struct-typed stack slot or global yields
//! a distinct [`MemObjectKind::Field`] object — identified by its *root*
//! object plus a byte extent — instead of the whole allocation. Two field
//! objects may-alias only when they share a root and their byte extents
//! overlap; a field always overlaps its root (a store through the base
//! pointer can write any field). This mirrors the field-sensitive half of
//! LLVM's `basic-aa` that the paper's pipeline relies on, and is what lets
//! the obligation pruner distinguish "the attacker can smash `s.buf`" from
//! "the attacker can smash `s.privilege`".
//!
//! Safe fallbacks keep the relation sound:
//! - `gep` (variable-index pointer arithmetic) stays monolithic: the result
//!   keeps the whole base object, never a field split.
//! - `field_addr` through ⊤, through a non-struct object, through a heap
//!   object (allocation sites carry no type), or with an out-of-range index
//!   falls back to the base object.
//! - `inttoptr` (pointer forging, paper §3.1) poisons a value with the ⊤
//!   ("unknown") marker, which the clients treat as may-alias-anything.
//! - Loads read the memory of every object *overlapping* the pointee
//!   (root + intersecting fields), so pointers stored through a base
//!   pointer are still seen by loads through a field pointer and vice
//!   versa.
//!
//! [`PointsTo::analyze_with`] selects the precision; the field-insensitive
//! mode reproduces the pre-upgrade relation exactly (field objects are
//! never interned, so base object ids are identical across the two modes —
//! the refinement property tests rely on this).
//!
//! # Context sensitivity
//!
//! Context-sensitive relations live in [`crate::summary`]: the summary
//! solver instantiates the per-function constraint lists gathered here
//! (`gather_function`) once per calling context, over this relation's
//! object ids. 1-CFA is that solver at k = 1.

use pythia_ir::{Callee, FuncId, GlobalId, Inst, Intrinsic, Module, Ty, ValueId, ValueKind};
use std::collections::{BTreeSet, HashMap};

/// Precision of the points-to object model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// `field_addr` copies the base object (the pre-upgrade behavior, and
    /// the model DFI-style analyses assume).
    FieldInsensitive,
    /// `field_addr` on struct-typed stack/global objects yields a distinct
    /// per-field abstract object.
    #[default]
    FieldSensitive,
}

/// What an abstract memory object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemObjectKind {
    /// A stack slot: `alloca` instruction `value` in function `func`.
    Stack {
        /// Owning function.
        func: FuncId,
        /// The alloca instruction's value id.
        value: ValueId,
    },
    /// A module global.
    Global(GlobalId),
    /// A heap allocation site: the allocating call `value` in `func`.
    Heap {
        /// Function containing the allocation site.
        func: FuncId,
        /// The call instruction's value id.
        value: ValueId,
    },
    /// A field of a struct-typed root object, as a byte extent. Only the
    /// field-sensitive mode creates these; `base` always names a non-field
    /// (root) object.
    Field {
        /// The root object this field belongs to.
        base: ObjId,
        /// Byte offset of the field within the root object.
        offset: u64,
        /// Byte size of the field (at least 1).
        size: u64,
    },
}

impl MemObjectKind {
    /// Whether this is a [`MemObjectKind::Field`] split.
    pub fn is_field(&self) -> bool {
        matches!(self, MemObjectKind::Field { .. })
    }
}

/// Index of an abstract object in [`PointsTo::objects`].
pub type ObjId = u32;

/// A points-to set: a set of abstract objects, possibly widened to ⊤.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjSet {
    /// Concrete objects.
    pub objects: BTreeSet<ObjId>,
    /// ⊤ marker: may point anywhere (set by `inttoptr` and its flows).
    pub unknown: bool,
}

impl ObjSet {
    /// Union `other` into `self`; returns whether anything changed.
    pub fn merge(&mut self, other: &ObjSet) -> bool {
        let before = self.objects.len();
        self.objects.extend(other.objects.iter().copied());
        let mut changed = self.objects.len() != before;
        if other.unknown && !self.unknown {
            self.unknown = true;
            changed = true;
        }
        changed
    }

    /// Whether the set is empty and not ⊤.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty() && !self.unknown
    }

    /// May this set and `other` share an object *id*? (Pure set-level
    /// check; for the extent-aware question use [`PointsTo::may_alias`],
    /// which also treats a field and its root as overlapping.)
    pub fn may_overlap(&self, other: &ObjSet) -> bool {
        if (self.unknown && !other.is_empty()) || (other.unknown && !self.is_empty()) {
            return true;
        }
        if self.unknown && other.unknown {
            return true;
        }
        self.objects.intersection(&other.objects).next().is_some()
    }
}

/// Result of the points-to analysis.
#[derive(Debug, Clone)]
pub struct PointsTo {
    objects: Vec<MemObjectKind>,
    obj_index: HashMap<MemObjectKind, ObjId>,
    /// pts for each value node.
    value_pts: Vec<ObjSet>,
    /// pts of each object's *memory* (what stored pointers may point to).
    mem_pts: Vec<ObjSet>,
    /// node numbering
    value_base: Vec<u32>,
    /// Field objects of each root object, populated during the solve.
    fields_of: HashMap<ObjId, Vec<ObjId>>,
    /// Per-object content type (what the object's bytes hold), used to
    /// resolve `field_addr` splits. `None` = unknown layout (heap sites).
    content_ty: Vec<Option<Ty>>,
    /// Byte offset of each object within its root (0 for roots).
    obj_offset: Vec<u64>,
    precision: Precision,
}

impl PointsTo {
    fn node(&self, func: FuncId, value: ValueId) -> usize {
        (self.value_base[func.0 as usize] + value.0) as usize
    }

    /// All abstract objects discovered.
    pub fn objects(&self) -> &[MemObjectKind] {
        &self.objects
    }

    /// Object id for a kind, if it exists.
    pub fn obj_id(&self, kind: MemObjectKind) -> Option<ObjId> {
        self.obj_index.get(&kind).copied()
    }

    /// Object kind by id.
    pub fn obj_kind(&self, id: ObjId) -> MemObjectKind {
        self.objects[id as usize]
    }

    /// The precision this relation was computed at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The root object of `id`: itself for stack/global/heap objects, the
    /// underlying allocation for field objects. Root ids are identical
    /// across the two precisions (fields are interned strictly after every
    /// root), so coarsening by `base_object` maps a field-sensitive set
    /// into the field-insensitive object space.
    pub fn base_object(&self, id: ObjId) -> ObjId {
        match self.objects[id as usize] {
            MemObjectKind::Field { base, .. } => base,
            _ => id,
        }
    }

    /// Byte extent `(offset, size)` of `id` within its root, if it is a
    /// field object.
    pub fn field_extent(&self, id: ObjId) -> Option<(u64, u64)> {
        match self.objects[id as usize] {
            MemObjectKind::Field { offset, size, .. } => Some((offset, size)),
            _ => None,
        }
    }

    /// May objects `a` and `b` occupy overlapping bytes? A field always
    /// overlaps its root; sibling fields overlap iff their byte extents
    /// intersect; objects with different roots never overlap.
    pub fn object_overlaps(&self, a: ObjId, b: ObjId) -> bool {
        if a == b {
            return true;
        }
        if self.base_object(a) != self.base_object(b) {
            return false;
        }
        match (self.field_extent(a), self.field_extent(b)) {
            // Same root, at least one side is the root itself.
            (None, _) | (_, None) => true,
            (Some((ao, asz)), Some((bo, bsz))) => ao < bo + bsz && bo < ao + asz,
        }
    }

    /// Every object overlapping `id` (including `id` itself): the root,
    /// plus every field of the root whose extent intersects.
    pub fn overlapping_objects(&self, id: ObjId) -> Vec<ObjId> {
        let root = self.base_object(id);
        let mut out = vec![id];
        if root != id {
            out.push(root);
        }
        if let Some(fields) = self.fields_of.get(&root) {
            for &f in fields {
                if f != id && self.object_overlaps(id, f) {
                    out.push(f);
                }
            }
        }
        out
    }

    /// Total number of abstract objects (roots + field splits).
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Number of field-split objects the sensitive mode interned.
    pub fn num_field_objects(&self) -> usize {
        self.objects.iter().filter(|o| o.is_field()).count()
    }

    /// Mean points-to set size over all value nodes with a non-empty set —
    /// the paper-style precision headline (smaller is sharper).
    pub fn avg_points_to_size(&self) -> f64 {
        let (mut sum, mut n) = (0usize, 0usize);
        for s in &self.value_pts {
            if !s.is_empty() {
                sum += s.objects.len();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Points-to set of value `value` in `func`.
    pub fn points_to(&self, func: FuncId, value: ValueId) -> &ObjSet {
        &self.value_pts[self.node(func, value)]
    }

    /// What the memory of object `obj` may point to.
    pub fn memory_points_to(&self, obj: ObjId) -> &ObjSet {
        &self.mem_pts[obj as usize]
    }

    /// May two pointer values alias (refer to overlapping objects)? This
    /// is extent-aware: a pointer to a field aliases a pointer to its
    /// containing object, but not a pointer to a disjoint sibling field.
    pub fn may_alias(&self, a: (FuncId, ValueId), b: (FuncId, ValueId)) -> bool {
        let pa = self.points_to(a.0, a.1);
        let pb = self.points_to(b.0, b.1);
        if (pa.unknown && !pb.is_empty()) || (pb.unknown && !pa.is_empty()) {
            return true;
        }
        if pa.unknown && pb.unknown {
            return true;
        }
        pa.objects
            .iter()
            .any(|&x| pb.objects.iter().any(|&y| self.object_overlaps(x, y)))
    }

    /// Objects a store through `ptr` may write. `None` means ⊤ (anything).
    pub fn write_targets(&self, func: FuncId, ptr: ValueId) -> Option<Vec<ObjId>> {
        let pts = self.points_to(func, ptr);
        if pts.unknown {
            None
        } else {
            Some(pts.objects.iter().copied().collect())
        }
    }

    /// Run the analysis over a module at the default (field-sensitive)
    /// precision.
    pub fn analyze(m: &Module) -> Self {
        Self::analyze_with(m, Precision::FieldSensitive)
    }

    /// Run the analysis at an explicit precision. Root object ids are
    /// identical across precisions.
    pub fn analyze_with(m: &Module, precision: Precision) -> Self {
        Builder::new(m, precision).solve()
    }

    /// The *already interned* field object for field `field` of `o`, or
    /// `None` when no split applies (non-struct content, unknown layout,
    /// out-of-range index — the same fallbacks as the solve itself) and
    /// the caller must use `o`. Lookup-only: refining solvers layered over
    /// this relation resolve their (⊆-smaller) `FieldOf` edges through
    /// here, so their object space is exactly this relation's ids and no
    /// remapping step is needed.
    pub(crate) fn resolve_field(&self, o: ObjId, field: u32) -> Option<ObjId> {
        let content = self.content_ty[o as usize].as_ref()?;
        let Ty::Struct(fields) = content else {
            return None;
        };
        if field as usize >= fields.len() {
            return None;
        }
        let root = self.base_object(o);
        let offset = self.obj_offset[o as usize] + content.field_offset(field);
        let size = content.field_ty(field).size().max(1);
        self.obj_id(MemObjectKind::Field {
            base: root,
            offset,
            size,
        })
    }
}

/// One function's context-agnostic points-to constraints, gathered once
/// per function from the IR and instantiated per calling context. Both
/// the insensitive builder below and the summary solver
/// ([`crate::summary`]) replay exactly this list, which is what makes
/// their per-instruction semantics identical by construction (the OPT-02
/// equivalence check then only has to compare *solving* strategies).
#[derive(Debug, Clone)]
pub(crate) enum LocalConstraint {
    /// `pts(dst) ⊇ pts(src)` (both values of this function).
    Copy {
        /// Source value.
        src: ValueId,
        /// Destination value.
        dst: ValueId,
    },
    /// `pts(dst) ⊇ mem(o')` for each `o ∈ pts(ptr)`, `o'` overlapping `o`.
    Load {
        /// Pointer operand.
        ptr: ValueId,
        /// Loaded value.
        dst: ValueId,
    },
    /// `mem(o) ⊇ pts(src)` for each `o ∈ pts(ptr)`. Carries the store
    /// instruction's own id so flow-sensitive strong updates can drop it.
    Store {
        /// The store instruction's value id.
        inst: ValueId,
        /// Pointer operand.
        ptr: ValueId,
        /// Stored value.
        src: ValueId,
    },
    /// `pts(dst) ⊇ { field(o, field) | o ∈ pts(base) }` (field-sensitive
    /// mode only; the insensitive gather emits a `Copy` instead).
    FieldOf {
        /// Base pointer.
        base: ValueId,
        /// Result value.
        dst: ValueId,
        /// Field index.
        field: u32,
    },
    /// Seed `dst` with the object of `kind` (alloca / heap site / global
    /// address), whose content layout is `content`.
    Seed {
        /// The value holding the object's address.
        dst: ValueId,
        /// Object identity.
        kind: MemObjectKind,
        /// Content layout (`None` for heap sites).
        content: Option<Ty>,
    },
    /// Seed `dst` with ⊤ (`inttoptr` forging).
    SeedUnknown {
        /// The forged pointer value.
        dst: ValueId,
    },
    /// A resolved call edge: `args` flow into `target`'s parameters and
    /// `target`'s returned values flow back into `site`. Indirect calls
    /// emit one edge per address-taken, arity-matching candidate.
    Call {
        /// The call instruction's value id.
        site: ValueId,
        /// Resolved callee.
        target: FuncId,
        /// Argument values at the site.
        args: Vec<ValueId>,
    },
}

/// Gather the context-agnostic constraint list of one function. The
/// emission order mirrors the value order of the function, so replaying
/// the list interns objects in the exact order the monolithic gather did.
pub(crate) fn gather_function(
    m: &Module,
    fid: FuncId,
    precision: Precision,
    address_taken: &[FuncId],
) -> Vec<LocalConstraint> {
    let f = m.func(fid);
    let mut out = Vec::new();
    for v in f.value_ids() {
        match &f.value(v).kind {
            ValueKind::GlobalAddr(g) => {
                let ty = m.global(*g).ty.clone();
                out.push(LocalConstraint::Seed {
                    dst: v,
                    kind: MemObjectKind::Global(*g),
                    content: Some(ty),
                });
            }
            ValueKind::Inst(inst) => {
                gather_inst(m, fid, v, inst, precision, address_taken, &mut out)
            }
            _ => {}
        }
    }
    out
}

fn gather_inst(
    m: &Module,
    fid: FuncId,
    v: ValueId,
    inst: &Inst,
    precision: Precision,
    address_taken: &[FuncId],
    out: &mut Vec<LocalConstraint>,
) {
    match inst {
        Inst::Alloca { elem, count } => {
            let content = if *count <= 1 {
                elem.clone()
            } else {
                Ty::array(elem.clone(), *count)
            };
            out.push(LocalConstraint::Seed {
                dst: v,
                kind: MemObjectKind::Stack {
                    func: fid,
                    value: v,
                },
                content: Some(content),
            });
        }
        Inst::Load { ptr } => out.push(LocalConstraint::Load { ptr: *ptr, dst: v }),
        Inst::Store { ptr, value } => out.push(LocalConstraint::Store {
            inst: v,
            ptr: *ptr,
            src: *value,
        }),
        Inst::Gep { base, .. } => {
            // Variable-index pointer arithmetic stays monolithic: the
            // result keeps the whole base object (safe fallback).
            out.push(LocalConstraint::Copy { src: *base, dst: v });
        }
        Inst::FieldAddr { base, field } => match precision {
            Precision::FieldSensitive => out.push(LocalConstraint::FieldOf {
                base: *base,
                dst: v,
                field: *field,
            }),
            Precision::FieldInsensitive => out.push(LocalConstraint::Copy { src: *base, dst: v }),
        },
        Inst::Bin { lhs, rhs, .. } => {
            // Pointer arithmetic through integer ops keeps the base
            // objects (conservative: union both sides).
            for s in [lhs, rhs] {
                out.push(LocalConstraint::Copy { src: *s, dst: v });
            }
        }
        Inst::Cast { kind, value, .. } => {
            use pythia_ir::CastKind;
            if matches!(kind, CastKind::IntToPtr) {
                // Forged pointer: ⊤, but also keep whatever the integer
                // was carrying (ptrtoint round trips).
                out.push(LocalConstraint::SeedUnknown { dst: v });
            }
            out.push(LocalConstraint::Copy { src: *value, dst: v });
        }
        Inst::Select {
            on_true, on_false, ..
        } => {
            for s in [on_true, on_false] {
                out.push(LocalConstraint::Copy { src: *s, dst: v });
            }
        }
        Inst::Phi { incomings } => {
            for (_, s) in incomings {
                out.push(LocalConstraint::Copy { src: *s, dst: v });
            }
        }
        Inst::PacSign { value, .. } | Inst::PacAuth { value, .. } | Inst::PacStrip { value } => {
            out.push(LocalConstraint::Copy { src: *value, dst: v });
        }
        Inst::Call { callee, args } => match callee {
            Callee::Func(target) => out.push(LocalConstraint::Call {
                site: v,
                target: *target,
                args: args.clone(),
            }),
            Callee::Indirect(_) => {
                for t in address_taken
                    .iter()
                    .copied()
                    .filter(|t| m.func(*t).params.len() == args.len())
                {
                    out.push(LocalConstraint::Call {
                        site: v,
                        target: t,
                        args: args.clone(),
                    });
                }
            }
            Callee::Intrinsic(i) => {
                if i.is_allocator() {
                    // Allocation sites carry no layout, so heap objects are
                    // never field-split (content type unknown).
                    out.push(LocalConstraint::Seed {
                        dst: v,
                        kind: MemObjectKind::Heap {
                            func: fid,
                            value: v,
                        },
                        content: None,
                    });
                }
                match i {
                    // Channels that return their destination argument.
                    Intrinsic::Memcpy
                    | Intrinsic::Memmove
                    | Intrinsic::Strcpy
                    | Intrinsic::Strncpy
                    | Intrinsic::Sstrncpy
                    | Intrinsic::Strcat
                    | Intrinsic::Strncat
                    | Intrinsic::Fgets
                    | Intrinsic::Gets
                    | Intrinsic::Memset => {
                        if let Some(dst) = args.first() {
                            out.push(LocalConstraint::Copy { src: *dst, dst: v });
                        }
                    }
                    Intrinsic::Realloc => {
                        if let Some(old) = args.first() {
                            out.push(LocalConstraint::Copy { src: *old, dst: v });
                        }
                    }
                    _ => {}
                }
            }
        },
        _ => {}
    }
}

/// Collect address-taken functions, in first-sighting order (shared by
/// the gather, the context plans and the call graph's indirect-call
/// resolution so every linked edge has a context to land in).
pub(crate) fn collect_address_taken(m: &Module) -> Vec<FuncId> {
    let mut out: Vec<FuncId> = Vec::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        for v in f.value_ids() {
            if let ValueKind::FuncAddr(t) = f.value(v).kind {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Constraint kinds gathered from the IR.
#[derive(Debug, Clone, Copy)]
enum Constraint {
    /// `pts(dst) ⊇ pts(src)`
    Copy { src: usize, dst: usize },
    /// `pts(dst) ⊇ mem(o')` for each `o ∈ pts(ptr)`, `o'` overlapping `o`
    Load { ptr: usize, dst: usize },
    /// `mem(o) ⊇ pts(src)` for each `o ∈ pts(ptr)`
    Store { ptr: usize, src: usize },
    /// `pts(dst) ⊇ { field(o, field) | o ∈ pts(base) }`, where `field(o, f)`
    /// is the interned field object when `o` is struct-typed and `o` itself
    /// otherwise (the safe fallback). Only emitted in field-sensitive mode.
    FieldOf {
        base: usize,
        dst: usize,
        field: u32,
    },
}

struct Builder<'m> {
    m: &'m Module,
    pt: PointsTo,
    constraints: Vec<Constraint>,
}

impl<'m> Builder<'m> {
    fn new(m: &'m Module, precision: Precision) -> Self {
        // Number value nodes.
        let mut value_base = Vec::with_capacity(m.functions().len());
        let mut total = 0u32;
        for f in m.functions() {
            value_base.push(total);
            total += f.num_values() as u32;
        }
        let pt = PointsTo {
            objects: Vec::new(),
            obj_index: HashMap::new(),
            value_pts: vec![ObjSet::default(); total as usize],
            mem_pts: Vec::new(),
            value_base,
            fields_of: HashMap::new(),
            content_ty: Vec::new(),
            obj_offset: Vec::new(),
            precision,
        };
        Builder {
            m,
            pt,
            constraints: Vec::new(),
        }
    }

    fn intern_obj(&mut self, kind: MemObjectKind, content: Option<Ty>, offset: u64) -> ObjId {
        if let Some(&id) = self.pt.obj_index.get(&kind) {
            return id;
        }
        let id = self.pt.objects.len() as ObjId;
        self.pt.objects.push(kind);
        self.pt.obj_index.insert(kind, id);
        self.pt.mem_pts.push(ObjSet::default());
        self.pt.content_ty.push(content);
        self.pt.obj_offset.push(offset);
        if let MemObjectKind::Field { base, .. } = kind {
            self.pt.fields_of.entry(base).or_default().push(id);
        }
        id
    }

    /// The field object for field `field` of object `o`, or `None` when
    /// the split is not possible (non-struct content, unknown layout,
    /// out-of-range index) and the caller must fall back to `o` itself.
    fn field_object(&mut self, o: ObjId, field: u32) -> Option<ObjId> {
        let content = self.pt.content_ty[o as usize].clone()?;
        let Ty::Struct(fields) = &content else {
            return None;
        };
        if field as usize >= fields.len() {
            return None;
        }
        let root = self.pt.base_object(o);
        let offset = self.pt.obj_offset[o as usize] + content.field_offset(field);
        let fty = content.field_ty(field).clone();
        let size = fty.size().max(1);
        Some(self.intern_obj(
            MemObjectKind::Field {
                base: root,
                offset,
                size,
            },
            Some(fty),
            offset,
        ))
    }

    fn seed(&mut self, node: usize, obj: ObjId) {
        self.pt.value_pts[node].objects.insert(obj);
    }

    fn seed_unknown(&mut self, node: usize) {
        self.pt.value_pts[node].unknown = true;
    }

    fn gather(&mut self) {
        // Pre-create global objects (module order, before any stack/heap
        // object, so global ids line up across precisions).
        for g in self.m.global_ids() {
            let ty = self.m.global(g).ty.clone();
            self.intern_obj(MemObjectKind::Global(g), Some(ty), 0);
        }
        let address_taken = collect_address_taken(self.m);
        let locals: Vec<Vec<LocalConstraint>> = self
            .m
            .func_ids()
            .map(|fid| gather_function(self.m, fid, self.pt.precision, &address_taken))
            .collect();

        for fid in self.m.func_ids() {
            for lc in &locals[fid.0 as usize] {
                self.apply_local(fid, lc);
            }
        }
    }

    /// Instantiate one shared constraint.
    fn apply_local(&mut self, fid: FuncId, lc: &LocalConstraint) {
        match lc {
            LocalConstraint::Copy { src, dst } => {
                let (s, d) = (self.pt.node(fid, *src), self.pt.node(fid, *dst));
                self.constraints.push(Constraint::Copy { src: s, dst: d });
            }
            LocalConstraint::Load { ptr, dst } => {
                let (p, d) = (self.pt.node(fid, *ptr), self.pt.node(fid, *dst));
                self.constraints.push(Constraint::Load { ptr: p, dst: d });
            }
            LocalConstraint::Store { ptr, src, .. } => {
                let (p, s) = (self.pt.node(fid, *ptr), self.pt.node(fid, *src));
                self.constraints.push(Constraint::Store { ptr: p, src: s });
            }
            LocalConstraint::FieldOf { base, dst, field } => {
                let (b, d) = (self.pt.node(fid, *base), self.pt.node(fid, *dst));
                self.constraints.push(Constraint::FieldOf {
                    base: b,
                    dst: d,
                    field: *field,
                });
            }
            LocalConstraint::Seed { dst, kind, content } => {
                let o = self.intern_obj(*kind, content.clone(), 0);
                let node = self.pt.node(fid, *dst);
                self.seed(node, o);
            }
            LocalConstraint::SeedUnknown { dst } => {
                let node = self.pt.node(fid, *dst);
                self.seed_unknown(node);
            }
            LocalConstraint::Call { site, target, args } => {
                let node = self.pt.node(fid, *site);
                self.link_call(fid, node, *target, args);
            }
        }
    }

    fn link_call(&mut self, fid: FuncId, node: usize, target: FuncId, args: &[ValueId]) {
        let callee = self.m.func(target);
        for (i, a) in args.iter().enumerate() {
            if i >= callee.params.len() {
                break;
            }
            let an = self.pt.node(fid, *a);
            let pn = self.pt.node(target, callee.arg(i));
            self.constraints.push(Constraint::Copy { src: an, dst: pn });
        }
        // Return values flow back to the call node.
        for bb in callee.block_ids() {
            if let Some(Inst::Ret { value: Some(rv) }) = callee.terminator(bb) {
                let rn = self.pt.node(target, *rv);
                self.constraints
                    .push(Constraint::Copy { src: rn, dst: node });
            }
        }
    }

    fn solve(mut self) -> PointsTo {
        self.gather();
        // Simple round-robin fixpoint; the constraint sets in generated
        // benchmarks are small enough (tens of thousands) that this
        // converges in a handful of rounds. Field objects are interned
        // lazily as `FieldOf` constraints first see a struct-typed base,
        // strictly after every root object.
        let mut changed = true;
        while changed {
            changed = false;
            for ci in 0..self.constraints.len() {
                match self.constraints[ci] {
                    Constraint::Copy { src, dst } => {
                        if src == dst {
                            continue;
                        }
                        let (s, d) = get_two(&mut self.pt.value_pts, src, dst);
                        if d.merge(s) {
                            changed = true;
                        }
                    }
                    Constraint::Load { ptr, dst } => {
                        let objs: Vec<ObjId> =
                            self.pt.value_pts[ptr].objects.iter().copied().collect();
                        let ptr_unknown = self.pt.value_pts[ptr].unknown;
                        for o in objs {
                            // A load must see pointers stored through any
                            // overlapping view of the same bytes (the root,
                            // or an intersecting sibling field).
                            for o2 in self.pt.overlapping_objects(o) {
                                let mem = self.pt.mem_pts[o2 as usize].clone();
                                if self.pt.value_pts[dst].merge(&mem) {
                                    changed = true;
                                }
                            }
                        }
                        if ptr_unknown && !self.pt.value_pts[dst].unknown {
                            self.pt.value_pts[dst].unknown = true;
                            changed = true;
                        }
                    }
                    Constraint::Store { ptr, src } => {
                        let objs: Vec<ObjId> =
                            self.pt.value_pts[ptr].objects.iter().copied().collect();
                        let val = self.pt.value_pts[src].clone();
                        for o in objs {
                            if self.pt.mem_pts[o as usize].merge(&val) {
                                changed = true;
                            }
                        }
                    }
                    Constraint::FieldOf { base, dst, field } => {
                        let objs: Vec<ObjId> =
                            self.pt.value_pts[base].objects.iter().copied().collect();
                        let base_unknown = self.pt.value_pts[base].unknown;
                        for o in objs {
                            let target = self.field_object(o, field).unwrap_or(o);
                            if self.pt.value_pts[dst].objects.insert(target) {
                                changed = true;
                            }
                        }
                        if base_unknown && !self.pt.value_pts[dst].unknown {
                            self.pt.value_pts[dst].unknown = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        self.pt
    }
}

fn get_two<T>(v: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

/// Default ceiling on the number of instantiated value nodes a
/// context-sensitive solve may allocate. Past it,
/// [`crate::SummaryPointsTo::analyze`] degrades to the insensitive
/// relation (always a sound superset), recorded in [`CtxStats::fallback`].
pub const CTX_NODE_BUDGET: usize = 2_000_000;

/// Headline counters of a context-sensitive solve, surfaced per benchmark
/// in BENCH_suite.json / profile.md.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxStats {
    /// Total calling contexts across all functions (one per function when
    /// the solve fell back).
    pub contexts: usize,
    /// Whether the node budget forced a fallback to the insensitive
    /// relation.
    pub fallback: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{CastKind, FunctionBuilder, Module, Ty};

    #[test]
    fn alloca_points_to_its_object() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let p = b.alloca(Ty::I64);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        let pts = pt.points_to(fid, p);
        assert_eq!(pts.objects.len(), 1);
        let o = *pts.objects.iter().next().unwrap();
        assert_eq!(
            pt.obj_kind(o),
            MemObjectKind::Stack {
                func: fid,
                value: p
            }
        );
    }

    #[test]
    fn pointer_stored_then_loaded_aliases_original() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let x = b.alloca(Ty::I64); // object X
        let pp = b.alloca(Ty::ptr(Ty::I64)); // pointer slot
        b.store(x, pp);
        let loaded = b.load(pp);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        assert!(pt.may_alias((fid, loaded), (fid, x)));
        assert!(!pt.may_alias((fid, pp), (fid, x)));
    }

    #[test]
    fn gep_keeps_base_object() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        let i = b.const_i64(3);
        let p = b.gep(buf, i);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        assert!(pt.may_alias((fid, p), (fid, buf)));
    }

    #[test]
    fn inttoptr_is_top() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let x = b.const_i64(0x1000);
        let p = b.cast(CastKind::IntToPtr, x, Ty::ptr(Ty::I64));
        let other = b.alloca(Ty::I64);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        assert!(pt.points_to(fid, p).unknown);
        // ⊤ may alias any real object.
        assert!(pt.may_alias((fid, p), (fid, other)));
        assert!(pt.write_targets(fid, p).is_none());
    }

    #[test]
    fn malloc_sites_are_distinct_objects() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let n = b.const_i64(32);
        let h1 = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I8));
        let h2 = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I8));
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        assert!(!pt.may_alias((fid, h1), (fid, h2)));
        assert!(matches!(
            pt.obj_kind(*pt.points_to(fid, h1).objects.iter().next().unwrap()),
            MemObjectKind::Heap { .. }
        ));
    }

    #[test]
    fn interprocedural_arg_flow() {
        let mut m = Module::new("m");
        // callee(p) { return p; }
        let mut cb = FunctionBuilder::new("callee", vec![Ty::ptr(Ty::I64)], Ty::ptr(Ty::I64));
        let p = cb.func().arg(0);
        cb.ret(Some(p));
        let callee = m.add_function(cb.finish());
        // caller: x = alloca; r = callee(x)
        let mut b = FunctionBuilder::new("caller", vec![], Ty::Void);
        let x = b.alloca(Ty::I64);
        let r = b.call(callee, vec![x], Ty::ptr(Ty::I64));
        b.ret(None);
        let caller = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        assert!(pt.may_alias((caller, r), (caller, x)));
        // The callee's parameter also points at the caller's alloca.
        let pf = m.func(callee).arg(0);
        assert!(pt.may_alias((callee, pf), (caller, x)));
    }

    #[test]
    fn indirect_call_links_address_taken_functions() {
        let mut m = Module::new("m");
        let mut cb = FunctionBuilder::new("target", vec![Ty::ptr(Ty::I64)], Ty::Void);
        cb.ret(None);
        let target = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("caller", vec![], Ty::Void);
        let x = b.alloca(Ty::I64);
        let fp = b.func_addr(target);
        b.call_indirect(fp, vec![x], Ty::Void);
        b.ret(None);
        let caller = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        let param = m.func(target).arg(0);
        assert!(pt.may_alias((target, param), (caller, x)));
    }

    #[test]
    fn global_objects_aliased_via_address() {
        let mut m = Module::new("m");
        let g = m.add_str_global("msg", "hi");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let ga1 = b.global_addr(g, Ty::array(Ty::I8, 3));
        let ga2 = b.global_addr(g, Ty::array(Ty::I8, 3));
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        assert!(pt.may_alias((fid, ga1), (fid, ga2)));
    }

    #[test]
    fn strcpy_returns_destination() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let dst = b.alloca(Ty::array(Ty::I8, 8));
        let src = b.alloca(Ty::array(Ty::I8, 8));
        let r = b.call_intrinsic(Intrinsic::Strcpy, vec![dst, src], Ty::ptr(Ty::I8));
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        assert!(pt.may_alias((fid, r), (fid, dst)));
        assert!(!pt.may_alias((fid, r), (fid, src)));
    }

    /// Build `f() { s = alloca {i64, [16 x i8], i64}; p0 = &s.0; p1 = &s.1;
    /// p2 = &s.2; }` and return (module, fid, s, p0, p1, p2).
    fn struct_module() -> (Module, FuncId, ValueId, ValueId, ValueId, ValueId) {
        let mut m = Module::new("m");
        let st = Ty::strukt(vec![Ty::I64, Ty::array(Ty::I8, 16), Ty::I64]);
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let s = b.alloca(st);
        let p0 = b.field_addr(s, 0);
        let p1 = b.field_addr(s, 1);
        let p2 = b.field_addr(s, 2);
        b.ret(None);
        let fid = m.add_function(b.finish());
        (m, fid, s, p0, p1, p2)
    }

    #[test]
    fn field_addrs_split_struct_objects() {
        let (m, fid, s, p0, p1, p2) = struct_module();
        let pt = PointsTo::analyze(&m);
        // Disjoint sibling fields do not alias each other...
        assert!(!pt.may_alias((fid, p0), (fid, p1)));
        assert!(!pt.may_alias((fid, p0), (fid, p2)));
        assert!(!pt.may_alias((fid, p1), (fid, p2)));
        // ...but every field aliases the whole-struct pointer.
        for p in [p0, p1, p2] {
            assert!(pt.may_alias((fid, p), (fid, s)));
        }
        assert_eq!(pt.num_field_objects(), 3);
        // The field objects coarsen back to the alloca's root object.
        let root = pt
            .obj_id(MemObjectKind::Stack {
                func: fid,
                value: s,
            })
            .unwrap();
        for p in [p0, p1, p2] {
            let o = *pt.points_to(fid, p).objects.iter().next().unwrap();
            assert!(pt.obj_kind(o).is_field());
            assert_eq!(pt.base_object(o), root);
        }
    }

    #[test]
    fn field_insensitive_mode_collapses_fields() {
        let (m, fid, s, p0, p1, _) = struct_module();
        let pt = PointsTo::analyze_with(&m, Precision::FieldInsensitive);
        assert!(pt.may_alias((fid, p0), (fid, p1)));
        assert!(pt.may_alias((fid, p0), (fid, s)));
        assert_eq!(pt.num_field_objects(), 0);
    }

    #[test]
    fn root_object_ids_stable_across_precisions() {
        let (m, fid, s, _, _, _) = struct_module();
        let fs = PointsTo::analyze(&m);
        let fi = PointsTo::analyze_with(&m, Precision::FieldInsensitive);
        let kind = MemObjectKind::Stack {
            func: fid,
            value: s,
        };
        assert_eq!(fs.obj_id(kind), fi.obj_id(kind));
        // Every field-insensitive object exists at the same id in the
        // sensitive relation (fields are appended strictly after).
        assert_eq!(fi.objects(), &fs.objects()[..fi.num_objects()]);
    }

    #[test]
    fn nested_field_addr_accumulates_offsets() {
        let mut m = Module::new("m");
        let inner = Ty::strukt(vec![Ty::I64, Ty::I64]);
        let outer = Ty::strukt(vec![Ty::I64, inner]);
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let s = b.alloca(outer);
        let pi = b.field_addr(s, 1); // &s.1 (inner struct at offset 8)
        let pii = b.field_addr(pi, 1); // &s.1.1 (offset 16)
        let p0 = b.field_addr(s, 0); // &s.0 (offset 0)
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        let o = *pt.points_to(fid, pii).objects.iter().next().unwrap();
        assert_eq!(pt.field_extent(o), Some((16, 8)));
        // The nested leaf does not alias the disjoint first field, but does
        // alias its containing inner-struct pointer.
        assert!(!pt.may_alias((fid, pii), (fid, p0)));
        assert!(pt.may_alias((fid, pii), (fid, pi)));
    }

    #[test]
    fn stores_via_field_visible_to_base_loads() {
        let mut m = Module::new("m");
        let st = Ty::strukt(vec![Ty::ptr(Ty::I64)]);
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let x = b.alloca(Ty::I64);
        let s = b.alloca(st);
        let f0 = b.field_addr(s, 0);
        b.store(x, f0); // store &x through the field pointer
        let ld = b.load(s); // load through the base pointer
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        // The base-pointer load must still see the field-stored pointer.
        assert!(pt.may_alias((fid, ld), (fid, x)));
    }

    #[test]
    fn field_addr_on_heap_falls_back_to_base() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let n = b.const_i64(16);
        let h = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I8));
        let p0 = b.field_addr(h, 0);
        let p1 = b.field_addr(h, 1);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        // No layout for heap sites: both field pointers keep the site object.
        assert!(pt.may_alias((fid, p0), (fid, p1)));
        assert_eq!(pt.num_field_objects(), 0);
    }

    #[test]
    fn sensitive_relation_refines_insensitive() {
        // may_alias must never gain pairs when sharpening the precision.
        let (m, fid, _, _, _, _) = struct_module();
        let fs = PointsTo::analyze(&m);
        let fi = PointsTo::analyze_with(&m, Precision::FieldInsensitive);
        let f = m.func(fid);
        for a in f.value_ids() {
            for bv in f.value_ids() {
                if fs.may_alias((fid, a), (fid, bv)) {
                    assert!(
                        fi.may_alias((fid, a), (fid, bv)),
                        "field-sensitive gained alias pair ({a}, {bv})"
                    );
                }
            }
        }
    }
}
