package telemetry

import "time"

// SweepInfo carries the run-level facts of a design-space sweep that only
// the driver knows (the engine cannot see the process clock or the memo).
type SweepInfo struct {
	Spec        string
	Fingerprint string
	Workers     int
	Wall        time.Duration
	// Points is the expanded point count; FrontierPoints is how many sit
	// on a Pareto frontier; SkippedInvalid counts grid combinations the
	// expansion rejected.
	Points, FrontierPoints, SkippedInvalid int
	// Shards/ResumedShards describe checkpointing: total checkpoint
	// shards, and how many were served from a resume manifest instead of
	// simulated.
	Shards, ResumedShards int
	// Instructions is the total simulated instruction count.
	Instructions int64
	// MemoCaptures and MemoHits describe the trace memo: captures
	// executed the VM, hits reused a capture.
	MemoCaptures, MemoHits int64
	// GangWidth is the configured fusion width (0 = auto, 1 = off).
	GangWidth int
	// FusedGangs counts the fused capture walks — kept front-end walks
	// and btb-gang walks — and FusedPoints the points simulated from
	// them; DirectPoints walked the capture once each; GangFallbacks
	// counts units the fused kernel refused and re-ran per point.
	FusedGangs, FusedPoints, DirectPoints, GangFallbacks int64
	// Interrupted marks a sweep cancelled before completing; the manifest
	// holds the shards that finished.
	Interrupted bool
}

// SweepMetrics is the exported run-metrics document of one sweep: how much
// design space was covered, how the work was scheduled, and how well the
// shared capture store amortized trace decoding across points.
type SweepMetrics struct {
	Spec           string `json:"spec"`
	Fingerprint    string `json:"fingerprint"`
	Points         int    `json:"points"`
	FrontierPoints int    `json:"frontier_points"`
	SkippedInvalid int    `json:"skipped_invalid,omitempty"`
	Shards         int    `json:"shards"`
	ResumedShards  int    `json:"resumed_shards,omitempty"`

	Workers int     `json:"workers"`
	WallMS  float64 `json:"wall_ms"`

	Instructions int64 `json:"instructions_simulated"`
	MemoCaptures int64 `json:"memo_captures"`
	MemoHits     int64 `json:"memo_hits"`
	// CaptureAmortization is points per capture: how many simulations
	// each decoded trace served. The sweep engine's whole point is to
	// keep this near points/workloads.
	CaptureAmortization float64 `json:"capture_amortization,omitempty"`

	// Gang fusion counters: how the run's points were scheduled onto
	// capture walks. GangWidth is the configured width (0 = auto, 1 =
	// fusion off). FusedGangs walks — one kept front-end walk per
	// workload with target-cache points, which every target-cache unit
	// replays, and one per btb gang — served FusedPoints points;
	// DirectPoints took one walk each; GangFallbacks counts units the
	// fused kernel refused (re-run per point — always 0 unless a fallback
	// condition appears). PassesAvoided is the headline: capture walks a
	// per-point sweep would have made that fusion did not.
	GangWidth     int   `json:"gang_width,omitempty"`
	FusedGangs    int64 `json:"fused_gangs,omitempty"`
	FusedPoints   int64 `json:"fused_points,omitempty"`
	DirectPoints  int64 `json:"direct_points,omitempty"`
	GangFallbacks int64 `json:"gang_fallbacks,omitempty"`
	PassesAvoided int64 `json:"passes_avoided,omitempty"`

	Interrupted bool `json:"interrupted,omitempty"`
}

// NewSweepMetrics derives the exported document from the run facts.
func NewSweepMetrics(info SweepInfo) SweepMetrics {
	m := SweepMetrics{
		Spec:           info.Spec,
		Fingerprint:    info.Fingerprint,
		Points:         info.Points,
		FrontierPoints: info.FrontierPoints,
		SkippedInvalid: info.SkippedInvalid,
		Shards:         info.Shards,
		ResumedShards:  info.ResumedShards,
		Workers:        info.Workers,
		WallMS:         float64(info.Wall.Microseconds()) / 1e3,
		Instructions:   info.Instructions,
		MemoCaptures:   info.MemoCaptures,
		MemoHits:       info.MemoHits,
		GangWidth:      info.GangWidth,
		FusedGangs:     info.FusedGangs,
		FusedPoints:    info.FusedPoints,
		DirectPoints:   info.DirectPoints,
		GangFallbacks:  info.GangFallbacks,
		PassesAvoided:  info.FusedPoints - info.FusedGangs,
		Interrupted:    info.Interrupted,
	}
	if info.MemoCaptures > 0 {
		m.CaptureAmortization = float64(info.Points) / float64(info.MemoCaptures)
	}
	return m
}
