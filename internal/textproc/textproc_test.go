package textproc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Great food, friendly staff!", []string{"great", "food", "friendly", "staff"}},
		{"", nil},
		{"...!!!", nil},
		{"5 stars — top-10 place", []string{"5", "stars", "top", "10", "place"}},
		{"Ωραίο μέρος", []string{"ωραίο", "μέρος"}}, // unicode letters survive
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRemoveStopwords(t *testing.T) {
	got := RemoveStopwords([]string{"the", "food", "was", "not", "good", "at", "all"})
	want := []string{"food", "not", "good"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RemoveStopwords = %v, want %v", got, want)
	}
	if got := RemoveStopwords([]string{"the", "taverna", "not", "no"}); !reflect.DeepEqual(got, []string{"taverna", "not", "no"}) {
		t.Errorf("RemoveStopwords = %v: only \"the\" is a stopword, and negation words must be kept for sentiment analysis", got)
	}
}

func TestBigrams(t *testing.T) {
	got := Bigrams(nil, []string{"good", "greek", "food"})
	want := []string{"good_greek", "greek_food"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Bigrams = %v, want %v", got, want)
	}
	if got := Bigrams(nil, []string{"solo"}); got != nil {
		t.Errorf("single token bigrams = %v, want none", got)
	}
}

func TestPipelineFeatureExtraction(t *testing.T) {
	base := BaselineOptions()
	feats := base.Features("The waiters were amazingly friendly")
	// stopwords removed, stemmed
	want := []string{"waiter", "amazingli", "friendli"}
	if !reflect.DeepEqual(feats, want) {
		t.Errorf("baseline features = %v, want %v", feats, want)
	}
	opt := OptimizedOptions()
	feats = opt.Features("great food great")
	// unigrams then bigrams of the stemmed stream
	wantSet := map[string]bool{"great": true, "food": true, "great_food": true, "food_great": true}
	for _, f := range feats {
		if !wantSet[f] {
			t.Errorf("unexpected optimized feature %q in %v", f, feats)
		}
	}
	if len(feats) != 5 { // great, food, great + 2 bigrams
		t.Errorf("optimized features = %v", feats)
	}
}

func TestInverseNormalCDF(t *testing.T) {
	// Φ⁻¹(0.5) = 0, Φ⁻¹(0.975) ≈ 1.96, symmetry.
	if got := InverseNormalCDF(0.5); math.Abs(got) > 1e-12 {
		t.Errorf("Φ⁻¹(0.5) = %g", got)
	}
	if got := InverseNormalCDF(0.975); math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("Φ⁻¹(0.975) = %g, want ≈1.96", got)
	}
	if got := InverseNormalCDF(0.1) + InverseNormalCDF(0.9); math.Abs(got) > 1e-12 {
		t.Errorf("Φ⁻¹ not antisymmetric: %g", got)
	}
	// Clamping keeps extreme probabilities finite.
	if v := InverseNormalCDF(0); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("Φ⁻¹(0) must be finite, got %g", v)
	}
	if v := InverseNormalCDF(1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("Φ⁻¹(1) must be finite, got %g", v)
	}
}

func TestBNSScoreDiscriminativeTermsScoreHigher(t *testing.T) {
	// Term A: in 90/100 positive docs, 5/100 negative → highly discriminative.
	// Term B: in 50/100 of both → useless.
	a := BNSScore(90, 100, 5, 100)
	b := BNSScore(50, 100, 50, 100)
	if a <= b {
		t.Errorf("BNS(a)=%g must exceed BNS(b)=%g", a, b)
	}
	if b != 0 {
		t.Errorf("symmetric term must score 0, got %g", b)
	}
	if BNSScore(1, 0, 1, 10) != 0 {
		t.Error("empty class must score 0")
	}
	// Symmetric in direction: a strong negative indicator scores equally.
	neg := BNSScore(5, 100, 90, 100)
	if math.Abs(a-neg) > 1e-12 {
		t.Errorf("BNS must be direction-symmetric: %g vs %g", a, neg)
	}
}

// tinyCorpus builds a clearly separable sentiment corpus.
func tinyCorpus() []Document {
	var docs []Document
	posPhrases := []string{
		"amazing food and friendly staff highly recommended",
		"wonderful experience great view delicious dishes",
		"excellent service lovely atmosphere will return",
		"fantastic cocktails beautiful sunset great music",
	}
	negPhrases := []string{
		"terrible food rude staff avoid this place",
		"horrible experience dirty tables awful smell",
		"disappointing service overpriced and noisy",
		"worst dinner cold food slow waiters",
	}
	for i := 0; i < 10; i++ {
		for _, p := range posPhrases {
			docs = append(docs, Document{Text: p, Label: Positive})
		}
		for _, p := range negPhrases {
			docs = append(docs, Document{Text: p, Label: Negative})
		}
	}
	return docs
}

func TestNaiveBayesLearnsSeparableCorpus(t *testing.T) {
	for _, opts := range []PipelineOptions{BaselineOptions(), OptimizedOptions()} {
		nb, err := TrainNaiveBayes(tinyCorpus(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if nb.Predict("the food was amazing and the staff so friendly") != Positive {
			t.Errorf("opts %+v: positive review misclassified", opts)
		}
		if nb.Predict("rude waiters and terrible horrible food") != Negative {
			t.Errorf("opts %+v: negative review misclassified", opts)
		}
		m := Evaluate(nb, tinyCorpus())
		if m.Accuracy() < 0.99 {
			t.Errorf("opts %+v: training accuracy %.3f too low", opts, m.Accuracy())
		}
	}
}

func TestNaiveBayesRequiresBothClasses(t *testing.T) {
	docs := []Document{{Text: "great", Label: Positive}}
	if _, err := TrainNaiveBayes(docs, BaselineOptions()); err == nil {
		t.Error("single-class training must fail")
	}
}

func TestNaiveBayesPruningShrinksVocabulary(t *testing.T) {
	docs := tinyCorpus()
	// Add singleton noise terms.
	for i := 0; i < 20; i++ {
		docs = append(docs, Document{Text: fmt.Sprintf("great unique%dnoise meal", i), Label: Positive})
		docs = append(docs, Document{Text: fmt.Sprintf("bad unique%dnoiseneg meal", i), Label: Negative})
	}
	noPrune := BaselineOptions()
	nb1, err := TrainNaiveBayes(docs, noPrune)
	if err != nil {
		t.Fatal(err)
	}
	pruned := noPrune
	pruned.MinOccurrences = 3
	nb2, err := TrainNaiveBayes(docs, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if nb2.VocabularySize() >= nb1.VocabularySize() {
		t.Errorf("pruning must shrink vocabulary: %d vs %d", nb2.VocabularySize(), nb1.VocabularySize())
	}
	if nb2.VocabularySize() == 0 {
		t.Error("pruned vocabulary empty")
	}
}

func TestNaiveBayesAllPruned(t *testing.T) {
	docs := []Document{
		{Text: "alpha", Label: Positive},
		{Text: "beta", Label: Negative},
	}
	opts := PipelineOptions{MinOccurrences: 5}
	if _, err := TrainNaiveBayes(docs, opts); err == nil {
		t.Error("fully pruned vocabulary must fail loudly")
	}
}

func TestSentimentGradeRange(t *testing.T) {
	nb, err := TrainNaiveBayes(tinyCorpus(), OptimizedOptions())
	if err != nil {
		t.Fatal(err)
	}
	pos := nb.SentimentGrade("amazing wonderful excellent fantastic food")
	neg := nb.SentimentGrade("terrible horrible awful worst dinner")
	if pos <= 3 || pos > 5 {
		t.Errorf("positive grade %g out of (3,5]", pos)
	}
	if neg >= 3 || neg < 1 {
		t.Errorf("negative grade %g out of [1,3)", neg)
	}
	if pos <= neg {
		t.Errorf("positive grade %g must exceed negative %g", pos, neg)
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	m := ConfusionMatrix{TruePositive: 8, TrueNegative: 7, FalsePositive: 2, FalseNegative: 3}
	if got := m.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("accuracy = %g", got)
	}
	if got := m.Precision(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("precision = %g", got)
	}
	if got := m.Recall(); math.Abs(got-8.0/11) > 1e-12 {
		t.Errorf("recall = %g", got)
	}
	if m.F1() <= 0 {
		t.Error("f1 must be positive")
	}
	var empty ConfusionMatrix
	if empty.Accuracy() != 0 || empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty matrix metrics must be 0")
	}
	if !strings.Contains(m.String(), "acc=0.750") {
		t.Errorf("String() = %q", m.String())
	}
}

// TestOptimizedBeatsBaselineOnNoisyCorpus is the micro version of the
// paper's Figure 4 claim: with a harder corpus (shared vocabulary between
// classes, discriminative phrases), the optimized pipeline must not lose
// to the baseline.
func TestOptimizedBeatsBaselineOnNoisyCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	common := []string{"food", "place", "service", "waiter", "table", "meal", "dinner", "menu"}
	posMarkers := []string{"good", "great", "nice", "lovely"}
	negMarkers := []string{"bad", "awful", "poor", "nasty"}
	gen := func(label Label, n int) []Document {
		var docs []Document
		for i := 0; i < n; i++ {
			var words []string
			for w := 0; w < 12; w++ {
				words = append(words, common[rng.Intn(len(common))])
			}
			markers := posMarkers
			if label == Negative {
				markers = negMarkers
			}
			// "not good" style negation makes bigrams genuinely useful.
			if rng.Intn(3) == 0 {
				opp := negMarkers
				if label == Negative {
					opp = posMarkers
				}
				words = append(words, "not", opp[rng.Intn(len(opp))])
			} else {
				words = append(words, markers[rng.Intn(len(markers))])
			}
			docs = append(docs, Document{Text: strings.Join(words, " "), Label: label})
		}
		return docs
	}
	var corpus []Document
	corpus = append(corpus, gen(Positive, 400)...)
	corpus = append(corpus, gen(Negative, 400)...)
	rng.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
	cut := len(corpus) * 7 / 10
	train, test := corpus[:cut], corpus[cut:]
	base, err := TrainNaiveBayes(train, BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Note: the baseline removes "not" as a stopword, so negated documents
	// are invisible to it; the optimized pipeline needs the negation too,
	// so for this test bigram features are built on a non-stopword pipeline.
	optOpts := OptimizedOptions()
	optOpts.RemoveStopwords = false
	opt, err := TrainNaiveBayes(train, optOpts)
	if err != nil {
		t.Fatal(err)
	}
	accBase := Evaluate(base, test).Accuracy()
	accOpt := Evaluate(opt, test).Accuracy()
	if accOpt < accBase-0.02 {
		t.Errorf("optimized accuracy %.3f dropped below baseline %.3f", accOpt, accBase)
	}
}

func BenchmarkTrainNaiveBayesOptimized(b *testing.B) {
	docs := tinyCorpus()
	for i := 0; i < 4; i++ {
		docs = append(docs, docs...) // ~1280 docs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainNaiveBayes(docs, OptimizedOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	nb, err := TrainNaiveBayes(tinyCorpus(), OptimizedOptions())
	if err != nil {
		b.Fatal(err)
	}
	text := "wonderful dinner amazing view but slow service and noisy tables"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Predict(text)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"relational", "conditional", "recommendations", "disappointing", "atmosphere"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}
