package core

import (
	"context"
	"fmt"
	"time"

	"modissense/internal/model"
	"modissense/internal/social"
)

// PipelineOptions tune one daily batch run. The paper calls the Data
// Collection, HotIn Update and Event Detection modules "periodically";
// RunDailyPipeline is that period's orchestration: collect the day's
// social activity, refresh hotness/interest, detect new events from GPS
// traces, and regenerate blogs for users who moved.
type PipelineOptions struct {
	// HotInWindow is how far back the hotness aggregation looks (defaults
	// to 7 days).
	HotInWindow time.Duration
	// EventEps / EventMinPts are the detection density parameters
	// (defaults: 120 m, 15 fixes).
	EventEps    float64
	EventMinPts int
	// SkipEventDetection turns the MR-DBSCAN stage off.
	SkipEventDetection bool
	// SkipBlogs turns the blog stage off.
	SkipBlogs bool
}

// PipelineReport summarizes one daily run.
type PipelineReport struct {
	Day        time.Time
	Collection social.RunStats
	HotIn      HotInStats
	Events     *EventDetectionResult
	// BlogsGenerated counts users whose blog for Day was (re)built.
	BlogsGenerated int
}

// RunDailyPipeline executes the platform's periodic batch work for the
// 24 hours of `day` (UTC). Cancelling ctx aborts the event-detection scan
// and stops between stages.
func (p *Platform) RunDailyPipeline(ctx context.Context, day time.Time, opts PipelineOptions) (*PipelineReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.HotInWindow == 0 {
		opts.HotInWindow = 7 * 24 * time.Hour
	}
	if opts.HotInWindow < 0 {
		return nil, fmt.Errorf("core: negative hotin window")
	}
	if opts.EventEps == 0 {
		opts.EventEps = 120
	}
	if opts.EventMinPts == 0 {
		opts.EventMinPts = 15
	}
	dayStart := time.Date(day.Year(), day.Month(), day.Day(), 0, 0, 0, 0, time.UTC)
	dayEnd := dayStart.Add(24 * time.Hour)
	report := &PipelineReport{Day: dayStart}

	// Stage 1: collect the day's social activity.
	collStats, err := p.Collect(dayStart, dayEnd)
	if err != nil {
		return nil, fmt.Errorf("core: pipeline collection: %w", err)
	}
	report.Collection = collStats

	// Stage 2: refresh hotness/interest over the trailing window.
	if report.HotIn, err = p.UpdateHotIn(dayEnd.Add(-opts.HotInWindow), dayEnd); err != nil {
		return nil, fmt.Errorf("core: pipeline hotin: %w", err)
	}

	// Stage 3: detect new events/POIs from the day's GPS-trace updates
	// (incremental, per the paper's "processes the updates of GPS Traces
	// Repository").
	if !opts.SkipEventDetection {
		events, err := p.DetectEvents(ctx, EventDetectionParams{
			Eps:         opts.EventEps,
			MinPts:      opts.EventMinPts,
			SinceMillis: dayStart.UnixMilli() - 1,
			UntilMillis: dayEnd.UnixMilli(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: pipeline event detection: %w", err)
		}
		report.Events = events
	}

	// Stage 4: regenerate blogs for every account with GPS activity today.
	if !opts.SkipBlogs {
		for _, acct := range p.Users.Accounts() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			moved := false
			err := p.GPS.ScanUser(acct.UserID, dayStart.UnixMilli(), dayEnd.UnixMilli()-1, func(model.GPSFix) bool {
				moved = true
				return false // one fix is enough to know
			})
			if err != nil {
				return nil, fmt.Errorf("core: pipeline gps scan: %w", err)
			}
			if !moved {
				continue
			}
			if _, err := p.generateBlogForUser(acct.UserID, dayStart); err != nil {
				return nil, fmt.Errorf("core: pipeline blog for user %d: %w", acct.UserID, err)
			}
			report.BlogsGenerated++
		}
	}
	return report, nil
}
