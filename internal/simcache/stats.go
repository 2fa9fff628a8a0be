package simcache

import "fmt"

// Snapshot is a point-in-time copy of the per-stage cache counters, the
// JSON-portable form shard trailers carry and merges sum. For each stage,
// hits are in-memory reuses, disk hits are values recovered from the
// backing directory, remote hits are values recovered from a network blob
// store, and misses are fresh computations; hits + disk hits + remote hits
// + misses = total lookups. Within one process the miss counts are
// deterministic for a given space (they count distinct keys, never
// goroutine scheduling). This writer records no remote hits, and no class
// disk hits: class lengths live in memory only (DESIGN.md §22). The disk
// and remote fields stay because trailers from older writers carry them
// and merges still sum them, and because the benchmark reads them; the
// class ones are omitempty and read 0 in every new trailer.
type Snapshot struct {
	EntryHits       int64 `json:"entry_hits"`
	EntryDiskHits   int64 `json:"entry_disk_hits,omitempty"`
	EntryRemoteHits int64 `json:"entry_remote_hits,omitempty"`
	EntryMisses     int64 `json:"entry_misses"`
	ClassHits       int64 `json:"class_hits"`
	ClassDiskHits   int64 `json:"class_disk_hits,omitempty"`
	ClassRemoteHits int64 `json:"class_remote_hits,omitempty"`
	ClassMisses     int64 `json:"class_misses"`

	// The analysis counters arrived after the wire format froze: every
	// field is omitempty so trailers from sweeps that never touch them stay
	// byte-identical to older readers and writers. Analyses are not stored
	// (DESIGN.md §18), so this writer counts only memo hits and misses;
	// the disk and remote hits of trailers from older writers still sum.
	AnalysisHits       int64 `json:"analysis_hits,omitempty"`
	AnalysisDiskHits   int64 `json:"analysis_disk_hits,omitempty"`
	AnalysisRemoteHits int64 `json:"analysis_remote_hits,omitempty"`
	AnalysisMisses     int64 `json:"analysis_misses,omitempty"`
	// Unit schedules are memoized only where a process shares an analysis
	// memo (dse serve), so every CLI and shard trailer omits them.
	ScheduleHits   int64 `json:"schedule_hits,omitempty"`
	ScheduleMisses int64 `json:"schedule_misses,omitempty"`

	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
}

// Snapshot returns the current counter values.
func (c *Cache) Snapshot() Snapshot {
	var s Snapshot
	s.EntryHits, s.EntryDiskHits, s.EntryMisses = c.frags.counts()
	s.ClassHits, s.ClassDiskHits, s.ClassMisses = c.classes.counts()
	s.AnalysisHits, s.AnalysisMisses = c.analysisHits.Load(), c.analysisMisses.Load()
	s.ScheduleHits, s.ScheduleMisses = c.scheduleHits.Load(), c.scheduleMisses.Load()
	s.PlanHits, s.PlanMisses = c.planHits.Load(), c.planMisses.Load()
	return s
}

// Add returns the counter-wise sum — how shard merging combines the hit
// statistics of independent worker processes.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		EntryHits:       s.EntryHits + o.EntryHits,
		EntryDiskHits:   s.EntryDiskHits + o.EntryDiskHits,
		EntryRemoteHits: s.EntryRemoteHits + o.EntryRemoteHits,
		EntryMisses:     s.EntryMisses + o.EntryMisses,
		ClassHits:       s.ClassHits + o.ClassHits,
		ClassDiskHits:   s.ClassDiskHits + o.ClassDiskHits,
		ClassRemoteHits: s.ClassRemoteHits + o.ClassRemoteHits,
		ClassMisses:     s.ClassMisses + o.ClassMisses,

		AnalysisHits:       s.AnalysisHits + o.AnalysisHits,
		AnalysisDiskHits:   s.AnalysisDiskHits + o.AnalysisDiskHits,
		AnalysisRemoteHits: s.AnalysisRemoteHits + o.AnalysisRemoteHits,
		AnalysisMisses:     s.AnalysisMisses + o.AnalysisMisses,
		ScheduleHits:       s.ScheduleHits + o.ScheduleHits,
		ScheduleMisses:     s.ScheduleMisses + o.ScheduleMisses,

		PlanHits:   s.PlanHits + o.PlanHits,
		PlanMisses: s.PlanMisses + o.PlanMisses,
	}
}

// Sub returns the counter-wise difference s - o: the lookups recorded
// between two snapshots of one live cache, which is how a long-running
// server attributes cache activity to a single request.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		EntryHits:       s.EntryHits - o.EntryHits,
		EntryDiskHits:   s.EntryDiskHits - o.EntryDiskHits,
		EntryRemoteHits: s.EntryRemoteHits - o.EntryRemoteHits,
		EntryMisses:     s.EntryMisses - o.EntryMisses,
		ClassHits:       s.ClassHits - o.ClassHits,
		ClassDiskHits:   s.ClassDiskHits - o.ClassDiskHits,
		ClassRemoteHits: s.ClassRemoteHits - o.ClassRemoteHits,
		ClassMisses:     s.ClassMisses - o.ClassMisses,

		AnalysisHits:       s.AnalysisHits - o.AnalysisHits,
		AnalysisDiskHits:   s.AnalysisDiskHits - o.AnalysisDiskHits,
		AnalysisRemoteHits: s.AnalysisRemoteHits - o.AnalysisRemoteHits,
		AnalysisMisses:     s.AnalysisMisses - o.AnalysisMisses,
		ScheduleHits:       s.ScheduleHits - o.ScheduleHits,
		ScheduleMisses:     s.ScheduleMisses - o.ScheduleMisses,

		PlanHits:   s.PlanHits - o.PlanHits,
		PlanMisses: s.PlanMisses - o.PlanMisses,
	}
}

// Zero reports whether no lookup was recorded (e.g. the cache was disabled).
func (s Snapshot) Zero() bool { return s == Snapshot{} }

// String renders the per-stage counters for stderr stats lines, as
// hits+diskHits+remoteHits/misses per stage. The schedule stage is
// appended only when the run looked one up, so a CLI line reads as it
// always did.
func (s Snapshot) String() string {
	stage := func(h, d, r, m int64) string {
		switch {
		case d > 0 && r > 0:
			return fmt.Sprintf("%d+%dd+%dr/%d", h, d, r, m)
		case r > 0:
			return fmt.Sprintf("%d+%dr/%d", h, r, m)
		case d > 0:
			return fmt.Sprintf("%d+%dd/%d", h, d, m)
		}
		return fmt.Sprintf("%d/%d", h, m)
	}
	str := fmt.Sprintf("analysis %s, frag %s, class %s, plan %s",
		stage(s.AnalysisHits, s.AnalysisDiskHits, s.AnalysisRemoteHits, s.AnalysisMisses),
		stage(s.EntryHits, s.EntryDiskHits, s.EntryRemoteHits, s.EntryMisses),
		stage(s.ClassHits, s.ClassDiskHits, s.ClassRemoteHits, s.ClassMisses),
		stage(s.PlanHits, 0, 0, s.PlanMisses))
	if s.ScheduleHits != 0 || s.ScheduleMisses != 0 {
		str += ", schedule " + stage(s.ScheduleHits, 0, 0, s.ScheduleMisses)
	}
	return str
}
