// Package record implements the S-Net communication quantum: the record.
//
// A record is a non-recursive set of label–value pairs. Labels are divided
// into fields, tags and binding tags:
//
//   - Fields carry values from the box-language domain (arbitrary Go values
//     here); they are entirely opaque to the coordination layer.
//   - Tags carry integer values that are accessible both to the coordination
//     layer and to boxes ("integers are the universal language of all
//     abstract machines").
//   - Binding tags (btags) behave like tags but are exempt from flow
//     inheritance; they are part of S-Net 2.0 (Language Report 2.0, TR 499)
//     and are provided for completeness.
//
// Records are the only kind of message that travels on S-Net streams. The
// runtime additionally uses control records (see Kind) to implement network
// unrolling and orderly shutdown; user code only ever observes data records.
//
// # Representation
//
// Label names are interned into a process-wide symbol table (see Sym); a
// record stores its bindings as slices of (Sym, value) entries sorted by
// symbol, with small inline backing arrays so a freshly built record of
// typical size is a single heap object. Matching against type variants,
// flow inheritance, merging and copying are merge-joins over the sorted
// entries: integer comparisons, no hashing, no allocation. A record also
// caches a hash of its label shape (ShapeHash) that is invalidated only
// when the label set changes, not when values are updated.
//
// The string-keyed API (SetField, Tag, ...) interns or looks up the label
// on every call; hot paths should intern once and use the Sym-keyed
// variants (SetFieldSym, TagSym, ...).
package record

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates data records from runtime-internal control records.
type Kind uint8

const (
	// Data is an ordinary record carrying fields and tags.
	Data Kind = iota
	// Trigger is a control record used internally by the runtime (for
	// example to flush synchrocells at network shutdown). Triggers are
	// never delivered to boxes.
	Trigger
)

// Inline entry capacities. Records within these bounds never allocate
// beyond the Record object itself; the bounds cover the paper's networks
// (at most a handful of labels per record) with room for combinator-added
// tags. Larger records transparently spill to heap-backed slices.
const (
	inlineFields = 4
	inlineTags   = 6
	inlineBTags  = 2
)

// fieldEntry is one field binding.
type fieldEntry struct {
	id  Sym
	val any
}

func (e fieldEntry) sym() Sym { return e.id }

// tagEntry is one tag or binding-tag binding.
type tagEntry struct {
	id  Sym
	val int
}

func (e tagEntry) sym() Sym { return e.id }

// Record is a set of label–value pairs. The zero value is not ready for
// use; construct records with New or Build, or recycle them with a Pool.
//
// Records are passed by pointer through the network. A record must be
// treated as owned by exactly one entity at a time: an entity that wants to
// both forward a record and keep it must Copy it first. This mirrors the
// single-owner semantics of S-Net streams and keeps the runtime free of
// locks on the hot path.
type Record struct {
	kind  Kind
	shape uint64 // cached shape hash; 0 means not computed

	// delivery is the at-least-once delivery id stamped by the runtime's
	// ingress journal (0 = untracked). It is runtime lineage metadata, not
	// a label: it never participates in matching, inheritance's override
	// rule, marshaling or Equal. Copy preserves it and InheritFromExcept
	// propagates it to derived records (unless they already carry one), so
	// every record descended from a journaled ingress record stays
	// attributable to its delivery id without per-entity bookkeeping.
	delivery uint64

	// Entries sorted by Sym; they alias the inline arrays below until they
	// outgrow them.
	fields []fieldEntry
	tags   []tagEntry
	btags  []tagEntry

	fbuf [inlineFields]fieldEntry
	tbuf [inlineTags]tagEntry
	bbuf [inlineBTags]tagEntry
}

// New returns an empty data record. The record and its inline entry storage
// are one heap allocation.
func New() *Record {
	r := &Record{kind: Data}
	r.fields = r.fbuf[:0]
	r.tags = r.tbuf[:0]
	r.btags = r.bbuf[:0]
	return r
}

// NewTrigger returns a control record of kind Trigger.
func NewTrigger() *Record {
	r := New()
	r.kind = Trigger
	return r
}

// Kind reports whether the record is a data or control record.
func (r *Record) Kind() Kind { return r.kind }

// IsData reports whether the record is an ordinary data record.
func (r *Record) IsData() bool { return r.kind == Data }

// Reset returns the record to the empty data state, releasing all value
// references while keeping its (possibly grown) entry storage for reuse.
// Pool.Put resets automatically; manual reuse may call Reset directly.
func (r *Record) Reset() *Record {
	r.kind = Data
	clear(r.fields)  // release field value references
	clear(r.fbuf[:]) // stale copies left behind when the slice spilled
	r.fields = r.fields[:0]
	r.tags = r.tags[:0]
	r.btags = r.btags[:0]
	r.shape = 0
	r.delivery = 0
	return r
}

// Delivery returns the record's at-least-once delivery id (0 = untracked).
func (r *Record) Delivery() uint64 { return r.delivery }

// SetDelivery stamps the record's delivery id. Only the runtime's ingress
// path (journal append, replay) should call it; derived records pick the id
// up automatically through Copy and flow inheritance.
func (r *Record) SetDelivery(id uint64) { r.delivery = id }

// searchEntries returns the first index with an id >= the key in a sorted
// entry slice.
func searchEntries[E interface{ sym() Sym }](s []E, id Sym) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].sym() < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// setTagIn inserts or overrides a tag binding in a sorted entry slice,
// reporting whether a new label was inserted (shape change). setFieldIn is
// its fieldEntry twin; the pair must keep identical insertion logic
// (append fast path for ascending builds, binary search + shift insert
// otherwise).
func setTagIn(s []tagEntry, id Sym, v int) ([]tagEntry, bool) {
	if n := len(s); n == 0 || s[n-1].id < id {
		return append(s, tagEntry{id: id, val: v}), true
	}
	i := searchEntries(s, id)
	if s[i].id == id {
		s[i].val = v
		return s, false
	}
	s = append(s, tagEntry{})
	copy(s[i+1:], s[i:])
	s[i] = tagEntry{id: id, val: v}
	return s, true
}

// setFieldIn inserts or overrides a field binding; see setTagIn.
func setFieldIn(s []fieldEntry, id Sym, v any) ([]fieldEntry, bool) {
	if n := len(s); n == 0 || s[n-1].id < id {
		return append(s, fieldEntry{id: id, val: v}), true
	}
	i := searchEntries(s, id)
	if s[i].id == id {
		s[i].val = v
		return s, false
	}
	s = append(s, fieldEntry{})
	copy(s[i+1:], s[i:])
	s[i] = fieldEntry{id: id, val: v}
	return s, true
}

// SetFieldSym binds the field symbol to value, overriding any previous
// binding. It returns the record to allow chaining.
func (r *Record) SetFieldSym(id Sym, value any) *Record {
	var ins bool
	r.fields, ins = setFieldIn(r.fields, id, value)
	if ins {
		r.shape = 0
	}
	return r
}

// SetField binds the field label to value, overriding any previous binding.
// It returns the record to allow chaining.
func (r *Record) SetField(label string, value any) *Record {
	return r.SetFieldSym(Intern(label), value)
}

// SetTagSym binds the tag symbol to value.
func (r *Record) SetTagSym(id Sym, value int) *Record {
	var ins bool
	r.tags, ins = setTagIn(r.tags, id, value)
	if ins {
		r.shape = 0
	}
	return r
}

// SetTag binds the tag label to value, overriding any previous binding.
func (r *Record) SetTag(label string, value int) *Record {
	return r.SetTagSym(Intern(label), value)
}

// SetBTagSym binds the binding-tag symbol to value.
func (r *Record) SetBTagSym(id Sym, value int) *Record {
	var ins bool
	r.btags, ins = setTagIn(r.btags, id, value)
	if ins {
		r.shape = 0
	}
	return r
}

// SetBTag binds the binding-tag label to value.
func (r *Record) SetBTag(label string, value int) *Record {
	return r.SetBTagSym(Intern(label), value)
}

// FieldSym returns the value bound to the field symbol.
func (r *Record) FieldSym(id Sym) (any, bool) {
	s := r.fields
	i := searchEntries(s, id)
	if i < len(s) && s[i].id == id {
		return s[i].val, true
	}
	return nil, false
}

// Field returns the value bound to the field label.
func (r *Record) Field(label string) (any, bool) {
	id, ok := LookupSym(label)
	if !ok {
		return nil, false
	}
	return r.FieldSym(id)
}

// MustField returns the value bound to the field label and panics when the
// label is absent. It is intended for box bodies whose input type has been
// verified by the runtime.
func (r *Record) MustField(label string) any {
	v, ok := r.Field(label)
	if !ok {
		panic(fmt.Sprintf("record: field %q absent from %s", label, r))
	}
	return v
}

// TagSym returns the value bound to the tag symbol.
func (r *Record) TagSym(id Sym) (int, bool) {
	s := r.tags
	i := searchEntries(s, id)
	if i < len(s) && s[i].id == id {
		return s[i].val, true
	}
	return 0, false
}

// Tag returns the value bound to the tag label.
func (r *Record) Tag(label string) (int, bool) {
	id, ok := LookupSym(label)
	if !ok {
		return 0, false
	}
	return r.TagSym(id)
}

// MustTag returns the value bound to the tag label and panics when the label
// is absent.
func (r *Record) MustTag(label string) int {
	v, ok := r.Tag(label)
	if !ok {
		panic(fmt.Sprintf("record: tag <%s> absent from %s", label, r))
	}
	return v
}

// BTagSym returns the value bound to the binding-tag symbol.
func (r *Record) BTagSym(id Sym) (int, bool) {
	s := r.btags
	i := searchEntries(s, id)
	if i < len(s) && s[i].id == id {
		return s[i].val, true
	}
	return 0, false
}

// BTag returns the value bound to the binding-tag label.
func (r *Record) BTag(label string) (int, bool) {
	id, ok := LookupSym(label)
	if !ok {
		return 0, false
	}
	return r.BTagSym(id)
}

// HasFieldSym reports whether the field symbol is present.
func (r *Record) HasFieldSym(id Sym) bool {
	_, ok := r.FieldSym(id)
	return ok
}

// HasField reports whether the field label is present.
func (r *Record) HasField(label string) bool {
	_, ok := r.Field(label)
	return ok
}

// HasTagSym reports whether the tag symbol is present.
func (r *Record) HasTagSym(id Sym) bool {
	_, ok := r.TagSym(id)
	return ok
}

// HasTag reports whether the tag label is present.
func (r *Record) HasTag(label string) bool {
	_, ok := r.Tag(label)
	return ok
}

// HasBTagSym reports whether the binding-tag symbol is present.
func (r *Record) HasBTagSym(id Sym) bool {
	_, ok := r.BTagSym(id)
	return ok
}

// HasBTag reports whether the binding-tag label is present.
func (r *Record) HasBTag(label string) bool {
	_, ok := r.BTag(label)
	return ok
}

// deleteField removes the entry at a found index.
func (r *Record) deleteFieldAt(i int) {
	s := r.fields
	copy(s[i:], s[i+1:])
	s[len(s)-1] = fieldEntry{} // release the value reference
	r.fields = s[:len(s)-1]
	r.shape = 0
}

func deleteTagAt(s []tagEntry, i int) []tagEntry {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// DeleteFieldSym removes the field symbol if present.
func (r *Record) DeleteFieldSym(id Sym) {
	i := searchEntries(r.fields, id)
	if i < len(r.fields) && r.fields[i].id == id {
		r.deleteFieldAt(i)
	}
}

// DeleteField removes the field label if present.
func (r *Record) DeleteField(label string) {
	if id, ok := LookupSym(label); ok {
		r.DeleteFieldSym(id)
	}
}

// DeleteTagSym removes the tag symbol if present.
func (r *Record) DeleteTagSym(id Sym) {
	i := searchEntries(r.tags, id)
	if i < len(r.tags) && r.tags[i].id == id {
		r.tags = deleteTagAt(r.tags, i)
		r.shape = 0
	}
}

// DeleteTag removes the tag label if present.
func (r *Record) DeleteTag(label string) {
	if id, ok := LookupSym(label); ok {
		r.DeleteTagSym(id)
	}
}

// DeleteBTagSym removes the binding-tag symbol if present.
func (r *Record) DeleteBTagSym(id Sym) {
	i := searchEntries(r.btags, id)
	if i < len(r.btags) && r.btags[i].id == id {
		r.btags = deleteTagAt(r.btags, i)
		r.shape = 0
	}
}

// DeleteBTag removes the binding-tag label if present.
func (r *Record) DeleteBTag(label string) {
	if id, ok := LookupSym(label); ok {
		r.DeleteBTagSym(id)
	}
}

// NumFields returns the number of field labels.
func (r *Record) NumFields() int { return len(r.fields) }

// NumTags returns the number of tag labels.
func (r *Record) NumTags() int { return len(r.tags) }

// NumBTags returns the number of binding-tag labels.
func (r *Record) NumBTags() int { return len(r.btags) }

// Fields returns the field labels in sorted (name) order. It allocates; hot
// paths should use VisitFieldSyms or the Sym-based accessors instead.
func (r *Record) Fields() []string {
	names := symNames()
	ks := make([]string, len(r.fields))
	for i := range r.fields {
		ks[i] = names[r.fields[i].id]
	}
	sort.Strings(ks)
	return ks
}

// Tags returns the tag labels in sorted (name) order. It allocates.
func (r *Record) Tags() []string { return tagNames(r.tags) }

// BTags returns the binding-tag labels in sorted (name) order. It allocates.
func (r *Record) BTags() []string { return tagNames(r.btags) }

func tagNames(s []tagEntry) []string {
	names := symNames()
	ks := make([]string, len(s))
	for i := range s {
		ks[i] = names[s[i].id]
	}
	sort.Strings(ks)
	return ks
}

// VisitFieldSyms calls fn for every field binding in ascending symbol
// order, without touching the symbol table. It never allocates.
func (r *Record) VisitFieldSyms(fn func(id Sym, value any)) {
	for i := range r.fields {
		fn(r.fields[i].id, r.fields[i].val)
	}
}

// VisitTagSyms calls fn for every tag binding in ascending symbol order.
func (r *Record) VisitTagSyms(fn func(id Sym, value int)) {
	for i := range r.tags {
		fn(r.tags[i].id, r.tags[i].val)
	}
}

// VisitBTagSyms calls fn for every binding-tag binding in ascending symbol
// order.
func (r *Record) VisitBTagSyms(fn func(id Sym, value int)) {
	for i := range r.btags {
		fn(r.btags[i].id, r.btags[i].val)
	}
}

// HasAllFieldSyms reports whether every symbol of ids (which must be sorted
// ascending, as type variants keep them) is present among the record's
// fields. It is the field half of the subtype acceptance test and never
// allocates.
func (r *Record) HasAllFieldSyms(ids []Sym) bool {
	return hasAll(r.fields, ids)
}

// HasAllTagSyms reports whether every symbol of the sorted ids is present
// among the record's tags.
func (r *Record) HasAllTagSyms(ids []Sym) bool {
	return hasAll(r.tags, ids)
}

// HasAllBTagSyms reports whether every symbol of the sorted ids is present
// among the record's binding tags.
func (r *Record) HasAllBTagSyms(ids []Sym) bool {
	return hasAll(r.btags, ids)
}

// hasAll is a merge-scan of a sorted entry slice against a sorted symbol
// set.
func hasAll[E interface{ sym() Sym }](entries []E, ids []Sym) bool {
	if len(ids) > len(entries) {
		return false
	}
	j := 0
	for _, id := range ids {
		for j < len(entries) && entries[j].sym() < id {
			j++
		}
		if j >= len(entries) || entries[j].sym() != id {
			return false
		}
		j++
	}
	return true
}

// Copy returns a deep copy of the record's label structure. Field values
// themselves are shared (they are opaque to the coordination layer, and
// boxes are stateless, so sharing is safe as long as boxes treat inputs as
// immutable — the same contract the paper imposes on C boxes).
func (r *Record) Copy() *Record {
	c := &Record{kind: r.kind, shape: r.shape, delivery: r.delivery}
	c.fields = append(c.fbuf[:0], r.fields...)
	c.tags = append(c.tbuf[:0], r.tags...)
	c.btags = append(c.bbuf[:0], r.btags...)
	return c
}

// mergeMissing merges into dst every src entry whose symbol is neither
// already bound in dst nor listed in except (sorted ascending). Existing dst
// bindings always win — the override rule. It reports whether dst changed.
// The merge is a backward merge-join over the sorted slices; it allocates
// only if dst outgrows its capacity.
func mergeMissing[E interface{ sym() Sym }](dst, src []E, except []Sym) ([]E, bool) {
	// First pass: count the entries to insert.
	add := 0
	i, k := 0, 0
	for _, e := range src {
		id := e.sym()
		for i < len(dst) && dst[i].sym() < id {
			i++
		}
		if i < len(dst) && dst[i].sym() == id {
			continue
		}
		for k < len(except) && except[k] < id {
			k++
		}
		if k < len(except) && except[k] == id {
			continue
		}
		add++
	}
	if add == 0 {
		return dst, false
	}
	n := len(dst)
	var zero E
	for j := 0; j < add; j++ {
		dst = append(dst, zero)
	}
	// Backward merge; the except cursor also walks backward since the
	// queried symbols only decrease.
	w, j := n+add-1, len(src)-1
	i, k = n-1, len(except)-1
	for w > i {
		id := src[j].sym()
		if i >= 0 && dst[i].sym() > id {
			dst[w] = dst[i]
			w--
			i--
			continue
		}
		if i >= 0 && dst[i].sym() == id {
			j-- // dst binding wins
			continue
		}
		for k >= 0 && except[k] > id {
			k--
		}
		if k >= 0 && except[k] == id {
			j-- // consumed label, never transferred
			continue
		}
		dst[w] = src[j]
		w--
		j--
	}
	return dst, true
}

// InheritFrom implements flow inheritance: every label of src that is not
// already present in r (of the same label class) is attached to r. Binding
// tags are exempt, per the S-Net language report. The receiver is returned.
//
// The "already present" test implements the override rule from the paper:
// "unless an identically labeled item is included in it already, a form of
// override".
func (r *Record) InheritFrom(src *Record) *Record {
	return r.InheritFromExcept(src, nil, nil)
}

// InheritFromExcept behaves like InheritFrom but never transfers labels
// listed in the consumed symbol sets (each sorted ascending, as type
// variants keep them). It is used at box boundaries where the labels
// matched by the box input variant are considered consumed by the box. It
// allocates only if the receiver outgrows its entry capacity.
func (r *Record) InheritFromExcept(src *Record, consumedFields, consumedTags []Sym) *Record {
	if r.delivery == 0 {
		// Lineage rides inheritance: a record derived from a journaled
		// input keeps the input's delivery id so completion tracking can
		// attribute it. An id the receiver already carries wins (it was
		// stamped by an earlier derivation).
		r.delivery = src.delivery
	}
	var changed bool
	if r.fields, changed = mergeMissing(r.fields, src.fields, consumedFields); changed {
		r.shape = 0
	}
	if r.tags, changed = mergeMissing(r.tags, src.tags, consumedTags); changed {
		r.shape = 0
	}
	return r
}

// Merge unions other into r. Labels already bound in r win; this implements
// the synchrocell join where the record matched against the earlier pattern
// takes priority on overlapping labels. The receiver is returned.
func (r *Record) Merge(other *Record) *Record {
	var changed bool
	if r.fields, changed = mergeMissing(r.fields, other.fields, nil); changed {
		r.shape = 0
	}
	if r.tags, changed = mergeMissing(r.tags, other.tags, nil); changed {
		r.shape = 0
	}
	if r.btags, changed = mergeMissing(r.btags, other.btags, nil); changed {
		r.shape = 0
	}
	return r
}

// ShapeHash returns a hash of the record's label shape: its kind and the
// symbol sets of its three label classes, independent of the bound values.
// The hash is computed lazily, cached, and invalidated only by label-set
// changes, so repeated shape comparisons (Equal's fast path, shape-keyed
// caches) cost a single load. Records built from the same labels in any
// order hash identically. The hash is never 0.
func (r *Record) ShapeHash() uint64 {
	if r.shape != 0 {
		return r.shape
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(r.kind)) * prime64
	hashSym := func(id Sym) {
		h = (h ^ uint64(uint32(id))) * prime64
	}
	for i := range r.fields {
		hashSym(r.fields[i].id)
	}
	h = (h ^ 0xff) * prime64 // class separator
	for i := range r.tags {
		hashSym(r.tags[i].id)
	}
	h = (h ^ 0xff) * prime64
	for i := range r.btags {
		hashSym(r.btags[i].id)
	}
	if h == 0 {
		h = 1
	}
	r.shape = h
	return h
}

// Equal reports whether two records have identical label sets, identical tag
// values and identical (shallow-compared) field values. Records built from
// the same bindings in different orders compare equal.
func (r *Record) Equal(other *Record) bool {
	if r.kind != other.kind ||
		len(r.fields) != len(other.fields) ||
		len(r.tags) != len(other.tags) ||
		len(r.btags) != len(other.btags) {
		return false
	}
	if r.ShapeHash() != other.ShapeHash() {
		return false
	}
	for i := range r.fields {
		if r.fields[i].id != other.fields[i].id ||
			r.fields[i].val != other.fields[i].val {
			return false
		}
	}
	for i := range r.tags {
		if r.tags[i] != other.tags[i] {
			return false
		}
	}
	for i := range r.btags {
		if r.btags[i] != other.btags[i] {
			return false
		}
	}
	return true
}

// String renders the record in S-Net style, e.g.
// {scene, sect, <node=3>, <tasks=48>}. Labels appear in sorted order so the
// output is deterministic. It allocates and is meant for diagnostics, not
// the hot path.
func (r *Record) String() string {
	if r.kind == Trigger {
		return "{*trigger*}"
	}
	var parts []string
	parts = append(parts, r.Fields()...)
	for _, k := range r.Tags() {
		v, _ := r.Tag(k)
		parts = append(parts, fmt.Sprintf("<%s=%d>", k, v))
	}
	for _, k := range r.BTags() {
		v, _ := r.BTag(k)
		parts = append(parts, fmt.Sprintf("<#%s=%d>", k, v))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// symNames snapshots the symbol table's name slice. The slice is
// append-only, and every symbol held by a record was interned before the
// snapshot, so indexing it without the lock is safe.
func symNames() []string {
	symtab.RLock()
	names := symtab.names
	symtab.RUnlock()
	return names
}
