package lib

import metrics "fixture/internal/obs"

// renamed passes a variable through a renamed import: flagged.
func renamed(v string) metrics.Label { return metrics.L("k", v) }
