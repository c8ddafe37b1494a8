package textproc

import (
	"fmt"
	"math"
)

// Label is a sentiment class.
type Label int

// Sentiment classes. The platform classifies comments as positive or
// negative, mirroring the paper's two-set Tripadvisor training split.
const (
	Negative Label = iota
	Positive
)

// String implements fmt.Stringer.
func (l Label) String() string {
	if l == Positive {
		return "positive"
	}
	return "negative"
}

// Document is one labeled training or evaluation text.
type Document struct {
	Text  string
	Label Label
}

// NaiveBayes is a multinomial Naive Bayes sentiment classifier with
// optional TF weighting, BNS feature scaling and rare-term pruning, all
// selected through PipelineOptions at training time.
type NaiveBayes struct {
	opts PipelineOptions
	// vocab maps term → index.
	vocab map[string]int
	// bns holds the per-term BNS scale (1.0 everywhere when disabled).
	bns []float64
	// logPrior[class] = log P(class).
	logPrior [2]float64
	// logLikelihood[class][term] = log P(term | class) with Laplace
	// smoothing over weighted counts.
	logLikelihood [2][]float64
	trainedDocs   int
}

// TrainNaiveBayes fits the classifier on the labeled corpus.
func TrainNaiveBayes(docs []Document, opts PipelineOptions) (*NaiveBayes, error) {
	var nPos, nNeg int
	for _, d := range docs {
		if d.Label == Positive {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return nil, fmt.Errorf("textproc: training set needs both classes (pos=%d neg=%d)", nPos, nNeg)
	}

	// Pass 1: extract features, document frequencies per class.
	features := make([][]string, len(docs))
	docFreq := map[string]int{}
	classDocFreq := [2]map[string]int{{}, {}}
	for i, d := range docs {
		features[i] = opts.Features(d.Text)
		seen := map[string]bool{}
		for _, t := range features[i] {
			if !seen[t] {
				seen[t] = true
				docFreq[t]++
				classDocFreq[d.Label][t]++
			}
		}
	}

	// Vocabulary with rare-term pruning.
	nb := &NaiveBayes{opts: opts, vocab: map[string]int{}, trainedDocs: len(docs)}
	for t, df := range docFreq {
		if opts.MinOccurrences > 1 && df < opts.MinOccurrences {
			continue
		}
		nb.vocab[t] = len(nb.vocab)
	}
	if len(nb.vocab) == 0 {
		return nil, fmt.Errorf("textproc: pruning left an empty vocabulary")
	}

	// BNS scale per term.
	nb.bns = make([]float64, len(nb.vocab))
	for t, idx := range nb.vocab {
		if opts.BNS {
			nb.bns[idx] = BNSScore(classDocFreq[Positive][t], nPos, classDocFreq[Negative][t], nNeg)
			if nb.bns[idx] <= 0 {
				// Keep non-discriminative terms at a small positive weight
				// so smoothing still works.
				nb.bns[idx] = 1e-3
			}
		} else {
			nb.bns[idx] = 1
		}
	}

	// Pass 2: accumulate weighted term counts per class.
	counts := [2][]float64{
		make([]float64, len(nb.vocab)),
		make([]float64, len(nb.vocab)),
	}
	totals := [2]float64{}
	for i, d := range docs {
		for t, w := range countFeatures(features[i], opts.TermFrequency) {
			idx, ok := nb.vocab[t]
			if !ok {
				continue
			}
			weighted := w * nb.bns[idx]
			counts[d.Label][idx] += weighted
			totals[d.Label] += weighted
		}
	}

	// Laplace-smoothed log likelihoods and priors.
	v := float64(len(nb.vocab))
	for class := 0; class < 2; class++ {
		nb.logLikelihood[class] = make([]float64, len(nb.vocab))
		denom := math.Log(totals[class] + v)
		for idx := range nb.logLikelihood[class] {
			nb.logLikelihood[class][idx] = math.Log(counts[class][idx]+1) - denom
		}
	}
	nb.logPrior[Positive] = math.Log(float64(nPos) / float64(len(docs)))
	nb.logPrior[Negative] = math.Log(float64(nNeg) / float64(len(docs)))
	return nb, nil
}

// VocabularySize returns the number of retained terms.
func (nb *NaiveBayes) VocabularySize() int { return len(nb.vocab) }

// Score returns the log-odds log P(Positive|text) − log P(Negative|text).
// Positive values favor the positive class; magnitude reflects confidence.
func (nb *NaiveBayes) Score(text string) float64 {
	feats := nb.opts.Features(text)
	scorePos := nb.logPrior[Positive]
	scoreNeg := nb.logPrior[Negative]
	for t, w := range countFeatures(feats, nb.opts.TermFrequency) {
		idx, ok := nb.vocab[t]
		if !ok {
			continue
		}
		weighted := w * nb.bns[idx]
		scorePos += weighted * nb.logLikelihood[Positive][idx]
		scoreNeg += weighted * nb.logLikelihood[Negative][idx]
	}
	return scorePos - scoreNeg
}

// Predict classifies the text.
func (nb *NaiveBayes) Predict(text string) Label {
	if nb.Score(text) >= 0 {
		return Positive
	}
	return Negative
}

// SentimentGrade converts the classifier log-odds into the platform's
// visit-grade scale [1, 5]: strongly negative → 1, neutral → 3, strongly
// positive → 5. The squash constant was chosen so typical review log-odds
// (|score| ≈ 5–20) spread over most of the scale.
func (nb *NaiveBayes) SentimentGrade(text string) float64 {
	return 3 + 2*math.Tanh(nb.Score(text)/10)
}
