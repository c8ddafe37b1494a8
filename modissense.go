// Package modissense is the public API of the MoDisSENSE platform
// reproduction: a distributed spatio-temporal and textual processing
// platform for social networking services (Mytilinis et al., SIGMOD 2015),
// rebuilt in pure Go on simulated substrates.
//
// The package re-exports the platform facade and the domain vocabulary so
// applications depend on a single import:
//
//	p, err := modissense.New(modissense.DefaultConfig())
//	...
//	acct, token, err := p.Users.SignIn("facebook", "facebook:1")
//	res, err := p.Search(ctx, modissense.SearchRequest{Token: token, ...})
//
// Query entry points take a context.Context; cancelling it (or letting the
// configured Config.QueryTimeout expire) aborts the region scans mid-flight.
//
// Architecture (one package per subsystem, all under internal/):
//
//   - geo        — haversine, grid index, R-tree
//   - sim        — discrete-event simulation kernel (virtual time)
//   - cluster    — simulated worker nodes + calibrated cost model
//   - kvstore    — LSM key-value store with regions and coprocessors (HBase role)
//   - mapreduce  — MapReduce engine (Hadoop role)
//   - textproc   — Porter stemmer, BNS, Naive Bayes sentiment pipeline (Mahout role)
//   - dbscan     — sequential DBSCAN + MR-DBSCAN event detection
//   - trajectory — stay points, POI matching, daily blog generation
//   - social     — connector plugins, OAuth-style sign-in, data collection
//   - repos      — the six datastore repositories of the paper's §2.1 (POI and
//     Blogs as keyed maps in PostgreSQL's role, the rest on kvstore)
//   - matview    — the HotIn module: incrementally maintained hotness/trending
//     view (the paper's periodic MapReduce job is its test oracle, hotin)
//   - query      — coprocessor-based personalized query answering
//   - core       — the wired platform + REST API
//   - workload   — synthetic dataset generators (the paper's §3 datasets)
package modissense

import (
	"net/http"

	"modissense/internal/core"
	"modissense/internal/geo"
	"modissense/internal/model"
	"modissense/internal/query"
	"modissense/internal/repos"
	"modissense/internal/textproc"
)

// Platform is a fully wired MoDisSENSE instance. See core.Platform.
type Platform = core.Platform

// Config sizes a platform instance.
type Config = core.Config

// SearchRequest is a personalized POI search for an authenticated user.
type SearchRequest = core.SearchRequest

// EventDetectionParams tune the MR-DBSCAN event-detection run.
type EventDetectionParams = core.EventDetectionParams

// EventDetectionResult reports one event-detection run.
type EventDetectionResult = core.EventDetectionResult

// Domain types.
type (
	// POI is a point of interest.
	POI = model.POI
	// User is a registered platform user.
	User = model.User
	// Friend is one social connection.
	Friend = model.Friend
	// Visit is one recorded POI visit.
	Visit = model.Visit
	// Checkin is a raw social check-in.
	Checkin = model.Checkin
	// Comment is a classified textual opinion.
	Comment = model.Comment
	// GPSFix is one GPS trace sample.
	GPSFix = model.GPSFix
)

// Geometry types.
type (
	// Point is a WGS-84 coordinate.
	Point = geo.Point
	// Rect is a bounding box.
	Rect = geo.Rect
)

// Query types.
type (
	// QueryResult is a completed personalized query.
	QueryResult = query.Result
	// ScoredPOI is one ranked result.
	ScoredPOI = query.ScoredPOI
	// OrderBy selects the ranking criterion.
	OrderBy = query.OrderBy
)

// Ranking criteria.
const (
	ByInterest = query.ByInterest
	ByHotness  = query.ByHotness
)

// Visits-repository schema variants (the paper's replication-vs-join
// design decision).
const (
	SchemaReplicated = repos.SchemaReplicated
	SchemaNormalized = repos.SchemaNormalized
)

// New boots a platform from the configuration.
func New(cfg Config) (*Platform, error) { return core.New(cfg) }

// DefaultConfig returns a demo-scale configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewHandler returns the platform's REST API handler.
func NewHandler(p *Platform) http.Handler { return core.NewHandler(p) }

// RectAround returns the bounding box of the circle centered at p.
func RectAround(p Point, radiusMeters float64) Rect { return geo.RectAround(p, radiusMeters) }

// NewRect builds a normalized bounding box from two corners.
func NewRect(a, b Point) Rect { return geo.NewRect(a, b) }

// BaselineClassifierOptions is the paper's baseline preprocessing
// (lowercase + stopwords + stemming).
func BaselineClassifierOptions() textproc.PipelineOptions { return textproc.BaselineOptions() }

// OptimizedClassifierOptions is the paper's optimized preprocessing
// (baseline + tf + 2-grams + BNS + rare-term pruning).
func OptimizedClassifierOptions() textproc.PipelineOptions { return textproc.OptimizedOptions() }

// PipelineOptions tune the daily batch orchestration (collection → HotIn →
// event detection → blogs).
type PipelineOptions = core.PipelineOptions

// PipelineReport summarizes one daily batch run.
type PipelineReport = core.PipelineReport
