package lbspec

import (
	"fmt"
	"strings"
)

// Report is the outcome of checking one execution (Monitor.Report).
type Report struct {
	// Violations of the deterministic conditions, in Violation.String
	// form; empty means the execution satisfies Timely Acknowledgement and
	// Validity everywhere.
	Violations []string

	// Broadcasts counts completed broadcasts (bcast with matching ack).
	Broadcasts int
	// ReliableSuccesses counts completed broadcasts whose every reliable
	// neighbor produced the recv output before the ack.
	ReliableSuccesses int

	// ProgressOpportunities counts (node, phase) pairs where some reliable
	// neighbor was active throughout the phase; ProgressSuccesses counts
	// those where the node heard at least one message during the phase.
	ProgressOpportunities int
	ProgressSuccesses     int

	// Per-node accounting for the locality experiments.
	OppsByNode, SuccByNode []int

	// AckLatencies are the observed bcast→ack round counts.
	AckLatencies []int
	// FirstRecvLatencies are, per completed broadcast, the rounds from
	// bcast until the last reliable neighbor's recv (only for reliable
	// successes).
	FirstRecvLatencies []int
}

// ReliabilityRate returns the fraction of completed broadcasts delivered to
// all reliable neighbors before the ack (1 if there were none).
func (r *Report) ReliabilityRate() float64 {
	if r.Broadcasts == 0 {
		return 1
	}
	return float64(r.ReliableSuccesses) / float64(r.Broadcasts)
}

// ProgressRate returns the fraction of progress opportunities that
// succeeded (1 if there were none).
func (r *Report) ProgressRate() float64 {
	if r.ProgressOpportunities == 0 {
		return 1
	}
	return float64(r.ProgressSuccesses) / float64(r.ProgressOpportunities)
}

// Err returns an error summarising deterministic violations, or nil.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	show := r.Violations
	const maxShow = 5
	suffix := ""
	if len(show) > maxShow {
		suffix = fmt.Sprintf(" (and %d more)", len(show)-maxShow)
		show = show[:maxShow]
	}
	return fmt.Errorf("lbspec: %d violations: %s%s", len(r.Violations), strings.Join(show, "; "), suffix)
}
