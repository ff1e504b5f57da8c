package guard

import (
	"fmt"
	"strings"

	"gdsx/internal/interp"
)

// Violation rules.
const (
	// RuleCarriedFlow: a read whose sequential data source is another
	// iteration's write that landed in a different copy — a
	// loop-carried flow dependence the thread-private classification
	// (Definition 5) ruled out on the training input.
	RuleCarriedFlow = "carried-flow"
	// RuleStaleCopy: a read through a non-zero copy of a byte no
	// iteration has written; sequential execution would observe the
	// pre-loop value, but copies other than 0 start zero-filled.
	RuleStaleCopy = "stale-copy-read"
	// RuleForeignCopy: an access landing in a copy that belongs to
	// neither the shared copy 0 nor the accessing thread.
	RuleForeignCopy = "foreign-copy-access"
	// RuleConflict: a cross-thread, cross-iteration conflict on the
	// same concrete address with at least one write and no ordered
	// section serializing both sides — an unsynchronized dependence
	// absent from the profiled DDG.
	RuleConflict = "unsynchronized-conflict"
)

// Violation describes one detected dependence violation. Site/Pos/Text
// identify the violating access in the expanded program; the Other*
// fields identify the conflicting access when one exists (a
// stale-copy-read has no in-region counterpart).
type Violation struct {
	Rule string `json:"rule"`
	Addr int64  `json:"addr"`

	Site int    `json:"site"`
	Pos  string `json:"pos"`
	Text string `json:"text"`
	Iter int64  `json:"iter"`
	Tid  int    `json:"tid"`
	// Copy is the copy index the access landed in, or -1 when the
	// address is outside every expanded structure.
	Copy int `json:"copy"`

	OtherSite int    `json:"other_site,omitempty"`
	OtherPos  string `json:"other_pos,omitempty"`
	OtherText string `json:"other_text,omitempty"`
	OtherIter int64  `json:"other_iter,omitempty"`
	OtherTid  int    `json:"other_tid,omitempty"`
}

// Report collects the violations of one parallel region.
type Report struct {
	Loop    int `json:"loop"`
	Threads int `json:"threads"`
	// Total counts every flagged access; Violations keeps the first
	// occurrence of each distinct (rule, site, other-site) triple, up
	// to the configured cap.
	//
	// Under full guarding the flow-shaped rules count by sequential
	// semantics: every read of expanded storage whose sequential data
	// source is another iteration's write (carried-flow) or pre-region
	// data (stale-copy-read), including the reads the schedule happened
	// to serve from the right copy. Which thread ran which iteration —
	// nondeterministic under work stealing — decides only whether a
	// read saw a wrong value, so it decides detection and the
	// Violations list, but not the count of a violating region.
	Total      int         `json:"total_violations"`
	Violations []Violation `json:"violations"`
	// ByRule counts every flagged access per rule (not capped, unlike
	// Violations). The sampled-tier classifier uses it: foreign-copy and
	// unsynchronized-conflict evidence is sound under sampling, while
	// the flow-shaped rules may be sampling artifacts.
	ByRule map[string]int `json:"by_rule,omitempty"`
}

// hardEvidence reports whether the report contains evidence that
// cannot be a sampling artifact: a foreign-copy access is a property
// of the single logged access, and an unsynchronized conflict is
// witnessed by two logged events that no unlogged event could excuse.
// The flow-shaped rules (carried-flow, stale-copy-read) infer a data
// source from the absence of intervening writes — which sampling can
// fake — so they are soft evidence.
func (r *Report) hardEvidence() bool {
	return r.ByRule[RuleForeignCopy] > 0 || r.ByRule[RuleConflict] > 0
}

// vioKey dedups reported violations.
type vioKey struct {
	rule        string
	site, other int
}

func (m *Monitor) newViolation(rule string, ev interp.Access, addr int64, cp int, other *interp.Access) Violation {
	v := Violation{
		Rule: rule, Addr: addr,
		Site: ev.Site, Iter: ev.Iter, Tid: ev.Tid, Copy: cp,
	}
	v.Pos, v.Text = m.siteInfo(ev.Site, ev.Store)
	if other != nil {
		v.OtherSite, v.OtherIter, v.OtherTid = other.Site, other.Iter, other.Tid
		v.OtherPos, v.OtherText = m.siteInfo(other.Site, other.Store)
	}
	return v
}

// siteInfo resolves a site ID against the expanded program's info.
func (m *Monitor) siteInfo(site int, store bool) (pos, text string) {
	pos, text = "-", "?"
	if m.cfg.Info == nil {
		return
	}
	as := m.cfg.Info.Accesses[site]
	if as == nil {
		return
	}
	kind := "read of"
	if store {
		kind = "write to"
	}
	return as.Pos.String(), fmt.Sprintf("%s %q", kind, as.Text)
}

// String renders the report for terminals and logs.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %d (%d threads): %d dependence violation(s), %d distinct\n",
		r.Loop, r.Threads, r.Total, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  [%s] site %d %s at %s (iteration %d, thread %d, copy %d)\n",
			v.Rule, v.Site, v.Text, v.Pos, v.Iter, v.Tid, v.Copy)
		if v.OtherSite != 0 || v.OtherText != "" {
			fmt.Fprintf(&sb, "    conflicts with site %d %s at %s (iteration %d, thread %d)\n",
				v.OtherSite, v.OtherText, v.OtherPos, v.OtherIter, v.OtherTid)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// ViolationError aborts a guarded run; the driver catches it and falls
// back to sequential re-execution of the native program.
type ViolationError struct {
	Report *Report
}

func (e *ViolationError) Error() string {
	r := e.Report
	msg := fmt.Sprintf("guard: %d dependence violation(s) detected in parallel loop %d", r.Total, r.Loop)
	if len(r.Violations) > 0 {
		v := r.Violations[0]
		msg += fmt.Sprintf("; first: [%s] site %d %s at %s (iteration %d, thread %d)",
			v.Rule, v.Site, v.Text, v.Pos, v.Iter, v.Tid)
	}
	return msg
}
