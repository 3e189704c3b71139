package kb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// DiffEntry is one difference between two knowledge bases.
type DiffEntry struct {
	// Section is "system", "hardware", "workload", "rule" or "order".
	Section string
	// Name identifies the entry within the section.
	Name string
	// Change is "added", "removed" or "changed".
	Change string
}

// String renders the entry.
func (d DiffEntry) String() string {
	return fmt.Sprintf("%s %s %q", d.Change, d.Section, d.Name)
}

// Diff compares two knowledge bases entry by entry — the review step of
// the crowd-sourcing workflow (§3.3): a maintainer diffing a contributed
// compendium against the current one sees exactly which encodings were
// added, removed, or modified. Entries are compared by their canonical
// JSON serialization, so field order and map iteration order don't
// produce phantom changes. Linear in the KB sizes: each section indexes
// its names once, and entries two KBs share by reference (a one-rule
// edit keeps the Hardware slice) are equal without serializing them.
func Diff(old, new *KB) []DiffEntry {
	var out []DiffEntry
	out = diffSection(out, "system", old.Systems, new.Systems,
		func(s *System) string { return s.Name })
	out = diffSection(out, "hardware", old.Hardware, new.Hardware,
		func(h *Hardware) string { return h.Name })
	out = diffSection(out, "workload", old.Workloads, new.Workloads,
		func(w *Workload) string { return w.Name })
	out = diffSection(out, "rule", old.Rules, new.Rules,
		func(r *Rule) string { return r.Name })
	out = diffSection(out, "order", old.Orders, new.Orders,
		func(o *OrderSpec) string { return o.Dimension })

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Change < b.Change
	})
	return out
}

// firstByName maps each name to its first entry, matching the
// XByName lookups.
func firstByName[T any](items []T, name func(*T) string) map[string]*T {
	m := make(map[string]*T, len(items))
	for i := range items {
		if n := name(&items[i]); m[n] == nil {
			m[n] = &items[i]
		}
	}
	return m
}

// diffSection appends one section's entries to out: removals in old
// order, then additions and changes in new order.
func diffSection[T any](out []DiffEntry, section string, oldItems, newItems []T, name func(*T) string) []DiffEntry {
	oldBy := firstByName(oldItems, name)
	newBy := firstByName(newItems, name)
	for i := range oldItems {
		if n := name(&oldItems[i]); newBy[n] == nil {
			out = append(out, DiffEntry{section, n, "removed"})
		}
	}
	for i := range newItems {
		n := name(&newItems[i])
		a, b := oldBy[n], newBy[n]
		if a == nil {
			out = append(out, DiffEntry{section, n, "added"})
			continue
		}
		if a != b && canonicalJSON(a) != canonicalJSON(b) {
			out = append(out, DiffEntry{section, n, "changed"})
		}
	}
	return out
}

func canonicalJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("!err:%v", err)
	}
	return string(data)
}

// FormatDiff renders a diff as a human-readable summary.
func FormatDiff(entries []DiffEntry) string {
	if len(entries) == 0 {
		return "no differences\n"
	}
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s\n", e)
	}
	fmt.Fprintf(&b, "%d difference(s)\n", len(entries))
	return b.String()
}
