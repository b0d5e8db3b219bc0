package explore

import (
	"sort"
	"strings"
	"sync"

	"crystalchoice/internal/sm"
)

// Violation canonicalization. A fault-enabled exploration reaches the
// same inconsistency through thousands of interleavings — E13 reports
// ~1.7k raw orphaned-child violations that differ only in which node
// crashed and in what order unrelated deliveries landed. To make reports
// actionable, every recorded violation is also folded into a violation
// *class* keyed by (property, canonical trace): trace labels are
// stripped of per-path identity (node IDs, message endpoints), then
// sorted and deduplicated so permutations of the same step kinds
// coincide. Each class keeps a count and its shortest witness trace,
// picked by a total order so the summary is byte-stable across worker
// counts and interleavings.

// ViolationClass summarizes one equivalence class of violations.
type ViolationClass struct {
	// Property is the violated safety property's name.
	Property string
	// Signature is the canonical trace: the sorted, deduplicated set of
	// canonicalized step labels, comma-joined.
	Signature string
	// Digest is a stable hash of (Property, Signature), usable as a
	// compact class identity across runs.
	Digest uint64
	// Count is the number of raw violations folded into the class.
	Count int
	// Witness is the best representative: the violation with the
	// shortest trace (ties broken by depth, then trace text).
	Witness Violation
}

type classKey struct {
	prop string
	sig  string
}

// classDigest finalizes a class identity hash.
func classDigest(prop, sig string) uint64 {
	h := sm.GetHasher()
	h.WriteString(prop)
	h.WriteString(sig)
	d := h.Sum()
	sm.PutHasher(h)
	return d
}

// canonLabel strips per-path identity from one trace step label:
// fault labels lose their node ("crash 5" → "crash"), timer labels lose
// their node ("3!rt.hbSend" → "!rt.hbSend"), message labels lose their
// endpoints ("0->2 rt.join" → "rt.join"), generic reaction branches lose
// their index, and drop labels canonicalize their payload recursively.
func canonLabel(label string) string {
	switch {
	case strings.HasPrefix(label, "drop "):
		return "drop " + canonLabel(label[len("drop "):])
	case strings.HasPrefix(label, "crash "):
		return "crash"
	case strings.HasPrefix(label, "recover "):
		return "recover"
	case strings.HasPrefix(label, "reset "):
		return "reset"
	case strings.HasPrefix(label, "isolate "):
		return "isolate"
	case strings.HasPrefix(label, "heal "):
		return "heal"
	case strings.HasPrefix(label, "generic-react#"):
		return "generic-react"
	}
	if sp := strings.IndexByte(label, ' '); sp >= 0 && strings.Contains(label[:sp], "->") {
		return label[sp+1:] // message label "src->dst kind": keep the kind
	}
	if bang := strings.IndexByte(label, '!'); bang >= 0 {
		return label[bang:] // timer label "node!name": keep "!name"
	}
	return label
}

// canonSignature folds a trace into its canonical signature: the sorted,
// deduplicated canonical labels, comma-joined. Scratch sorting reuses
// pooled name slices (namesPool).
func canonSignature(trace []string) string {
	if len(trace) == 0 {
		return ""
	}
	np := borrowNames()
	names := (*np)[:0]
	for _, step := range trace {
		names = append(names, canonLabel(step))
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 && n == names[i-1] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
	}
	*np = names
	returnNames(np)
	return b.String()
}

// betterWitness reports whether a is a strictly better class witness than
// b under the canonical total order: shorter trace, then shallower depth,
// then lexicographically smaller trace. The order is total on distinct
// violations, so the surviving witness does not depend on the order
// shards merge in.
func betterWitness(a, b Violation) bool {
	if len(a.Trace) != len(b.Trace) {
		return len(a.Trace) < len(b.Trace)
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			return a.Trace[i] < b.Trace[i]
		}
	}
	return false
}

// addViolation records one raw violation and folds it into its class.
func (r *Report) addViolation(v Violation) {
	r.Violations = append(r.Violations, v)
	sig := canonSignature(v.Trace)
	key := classKey{prop: v.Property, sig: sig}
	if r.classes == nil {
		r.classes = make(map[classKey]*ViolationClass)
	}
	c := r.classes[key]
	if c == nil {
		r.classes[key] = &ViolationClass{
			Property:  v.Property,
			Signature: sig,
			Digest:    classDigest(v.Property, sig),
			Count:     1,
			Witness:   v,
		}
		return
	}
	c.Count++
	if betterWitness(v, c.Witness) {
		c.Witness = v
	}
}

// mergeClasses folds another shard's class map into r's. Counts add and
// witnesses compete under the canonical order, so the merged summary is
// independent of shard order.
func (r *Report) mergeClasses(o *Report) {
	if len(o.classes) == 0 {
		return
	}
	if r.classes == nil {
		r.classes = make(map[classKey]*ViolationClass, len(o.classes))
	}
	for key, oc := range o.classes {
		c := r.classes[key]
		if c == nil {
			cp := *oc
			r.classes[key] = &cp
			continue
		}
		c.Count += oc.Count
		if betterWitness(oc.Witness, c.Witness) {
			c.Witness = oc.Witness
		}
	}
}

// ViolationClasses returns the report's violation classes sorted by
// (Property, Signature) — a stable, deduplicated summary of Violations.
// E13-style fault runs collapse ~1.7k raw entries into a handful of
// classes, each with a count and its shortest witness trace.
func (r *Report) ViolationClasses() []ViolationClass {
	if len(r.classes) == 0 {
		return nil
	}
	out := make([]ViolationClass, 0, len(r.classes))
	for _, c := range r.classes {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Property != out[j].Property {
			return out[i].Property < out[j].Property
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// namesPool recycles the scratch slices canonSignature sorts labels in.
var namesPool = sync.Pool{New: func() any {
	s := make([]string, 0, 8)
	return &s
}}

// borrowNames/returnNames traffic in the pooled *[]string directly:
// putting a plain slice back would re-box its header on every call,
// costing an allocation per signature.
func borrowNames() *[]string {
	return namesPool.Get().(*[]string)
}

func returnNames(p *[]string) {
	namesPool.Put(p)
}
