package trace

import (
	"fmt"
	"strings"
)

// Class identifies one class-partition of a failure log: the whole log
// (ClassAny), one root-cause category, or one (category, subtype) leaf.
// Every failure belongs to ClassAny, to its category's class, and — when
// its category carries a subtype — to exactly one leaf class. Indexes that
// keep one time-sorted posting list per class (see internal/analysis's
// DatasetIndex) can therefore answer any predicate built from the standard
// constructors by binary search over a single list instead of a scan.
type Class uint8

const (
	// ClassAny is the partition holding every failure.
	ClassAny Class = 0

	// Categories occupy 1..6, mirroring the Category values, so
	// CategoryClass is the identity on valid categories.
	classCatBase Class = 1

	// Leaf partitions: one per (category, subtype) pair, including the
	// "subtype unknown" leaves (e.g. Hardware with HWUnknown).
	classHWBase  Class = 7  // 7..16: Hardware by HWComponent
	classSWBase  Class = 17 // 17..23: Software by SWClass
	classEnvBase Class = 24 // 24..29: Environment by EnvClass

	// NumClasses bounds the dense class space; ClassOpaque sits outside it.
	NumClasses = 30

	// ClassOpaque marks predicates that carry an arbitrary filter function
	// (or out-of-range taxonomy values) and therefore route to no
	// partition; indexes fall back to a filtered walk of the ClassAny
	// timeline.
	ClassOpaque Class = 0xFF
)

// CategoryClass returns the partition of one root-cause category, or
// ClassOpaque for out-of-range values.
func CategoryClass(c Category) Class {
	if c < Environment || c > Undetermined {
		return ClassOpaque
	}
	return classCatBase + Class(c-Environment)
}

// HWClass returns the leaf partition of one hardware component, or
// ClassOpaque for out-of-range values.
func HWClass(h HWComponent) Class {
	if h < HWUnknown || h > OtherHW {
		return ClassOpaque
	}
	return classHWBase + Class(h-HWUnknown)
}

// SWClassOf returns the leaf partition of one software class, or
// ClassOpaque for out-of-range values.
func SWClassOf(s SWClass) Class {
	if s < SWUnknown || s > OtherSW {
		return ClassOpaque
	}
	return classSWBase + Class(s-SWUnknown)
}

// EnvClassOf returns the leaf partition of one environment subtype, or
// ClassOpaque for out-of-range values.
func EnvClassOf(e EnvClass) Class {
	if e < EnvUnknown || e > OtherEnv {
		return ClassOpaque
	}
	return classEnvBase + Class(e-EnvUnknown)
}

// ClassesOf appends the classes f belongs to onto dst and returns it:
// always ClassAny, the category class when the category is valid, and the
// (category, subtype) leaf when the category carries an in-range subtype.
func ClassesOf(f Failure, dst []Class) []Class {
	dst = append(dst, ClassAny)
	cat := CategoryClass(f.Category)
	if cat == ClassOpaque {
		return dst
	}
	dst = append(dst, cat)
	switch f.Category {
	case Hardware:
		if leaf := HWClass(f.HW); leaf != ClassOpaque {
			dst = append(dst, leaf)
		}
	case Software:
		if leaf := SWClassOf(f.SW); leaf != ClassOpaque {
			dst = append(dst, leaf)
		}
	case Environment:
		if leaf := EnvClassOf(f.Env); leaf != ClassOpaque {
			dst = append(dst, leaf)
		}
	}
	return dst
}

// predKind discriminates the ClassPred variants.
type predKind uint8

const (
	predAny predKind = iota
	predCategory
	predHW
	predSW
	predEnv
	predFunc
)

// ClassPred is the concrete predicate behind Pred: an event-class selector
// (category, optionally refined to one subtype) that class-partitioned
// indexes answer from a posting list, or an arbitrary filter function
// (PredOf) that they fall back to evaluating per event. Build values with
// CategoryPred, HWPred, SWPred, EnvPred or PredOf; the zero value matches
// every failure, like a nil Pred.
type ClassPred struct {
	kind  predKind
	class Class
	cat   Category
	hw    HWComponent
	sw    SWClass
	env   EnvClass
	fn    func(Failure) bool
}

// Pred is a failure predicate. A nil Pred matches every failure.
type Pred = *ClassPred

// Match reports whether f satisfies p, treating nil as match-all.
func (p *ClassPred) Match(f Failure) bool {
	if p == nil {
		return true
	}
	switch p.kind {
	case predCategory:
		return f.Category == p.cat
	case predHW:
		return f.Category == Hardware && f.HW == p.hw
	case predSW:
		return f.Category == Software && f.SW == p.sw
	case predEnv:
		return f.Category == Environment && f.Env == p.env
	case predFunc:
		return p.fn(f)
	default:
		return true
	}
}

// Class returns the partition that answers the predicate exactly, or
// ClassOpaque when no single partition does (PredOf predicates and
// out-of-range taxonomy values); callers holding ClassOpaque must filter
// with Match.
func (p *ClassPred) Class() Class {
	if p == nil {
		return ClassAny
	}
	return p.class
}

// CategoryPred matches failures of one high-level category.
func CategoryPred(c Category) Pred {
	return &ClassPred{kind: predCategory, class: CategoryClass(c), cat: c}
}

// HWPred matches hardware failures of one component.
func HWPred(h HWComponent) Pred {
	return &ClassPred{kind: predHW, class: HWClass(h), hw: h}
}

// SWPred matches software failures of one class.
func SWPred(s SWClass) Pred {
	return &ClassPred{kind: predSW, class: SWClassOf(s), sw: s}
}

// EnvPred matches environment failures of one subtype.
func EnvPred(e EnvClass) Pred {
	return &ClassPred{kind: predEnv, class: EnvClassOf(e), env: e}
}

// ParseEventSpec parses the event syntax the CLIs and the API share —
// ENV|HW|HUMAN|NET|SW|UNDET, optionally refined as HW/<component>,
// SW/<class> or ENV/<subtype>, any case — into its canonical label (stable
// across case variants) and predicate. An empty spec means "any failure"
// and yields an empty label and a nil predicate.
func ParseEventSpec(s string) (string, Pred, error) {
	if s == "" {
		return "", nil, nil
	}
	catLabel, rest, refined := strings.Cut(s, "/")
	cat, err := foldLookup(Categories, catLabel, "category")
	if err != nil {
		return "", nil, err
	}
	if !refined {
		return cat.String(), CategoryPred(cat), nil
	}
	leaf := func(label string, p Pred, err error) (string, Pred, error) {
		if err != nil {
			return "", nil, err
		}
		return cat.String() + "/" + label, p, nil
	}
	switch cat {
	case Hardware:
		c, err := foldLookup(HWComponents, rest, "hardware component")
		return leaf(c.String(), HWPred(c), err)
	case Software:
		c, err := foldLookup(SWClasses, rest, "software class")
		return leaf(c.String(), SWPred(c), err)
	case Environment:
		c, err := foldLookup(EnvClasses, rest, "environment subtype")
		return leaf(c.String(), EnvPred(c), err)
	default:
		return "", nil, fmt.Errorf("category %s has no subtypes", cat)
	}
}

// foldLookup finds the value of vals named s, ignoring case.
func foldLookup[T fmt.Stringer](vals []T, s, what string) (T, error) {
	for _, v := range vals {
		if strings.EqualFold(v.String(), s) {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q", what, s)
}

// PredOf wraps an arbitrary filter function as a Pred. Such predicates are
// opaque to class-partitioned indexes: queries still run, but evaluate fn
// against every event inside the query window instead of binary-searching a
// partition. A nil fn yields a nil (match-all) Pred.
func PredOf(fn func(Failure) bool) Pred {
	if fn == nil {
		return nil
	}
	return &ClassPred{kind: predFunc, class: ClassOpaque, fn: fn}
}
