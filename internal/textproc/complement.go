package textproc

import (
	"fmt"
	"math"
)

// TextClassifier is the common surface of the sentiment classifiers. The
// platform trains one at boot; the evaluation harness compares several.
type TextClassifier interface {
	// Predict classifies the text.
	Predict(text string) Label
}

// Compile-time checks.
var (
	_ TextClassifier = (*NaiveBayes)(nil)
	_ TextClassifier = (*ComplementNB)(nil)
)

// ComplementNB is the Complement Naive Bayes classifier (Rennie et al.,
// "Tackling the Poor Assumptions of Naive Bayes Text Classifiers", 2003)
// with weight normalization — the algorithm Apache Mahout ships as its
// default text classifier, making it the closest match to the paper's
// Mahout-based Text Processing module. It shares the full preprocessing
// pipeline (stemming, n-grams, TF, BNS, pruning) with NaiveBayes.
type ComplementNB struct {
	opts  PipelineOptions
	vocab map[string]int
	bns   []float64
	// weight[class][term] is the normalized log complement likelihood;
	// classification picks the class with the SMALLEST Σ f·w.
	weight      [2][]float64
	trainedDocs int
}

// TrainComplementNB fits the classifier on the labeled corpus.
func TrainComplementNB(docs []Document, opts PipelineOptions) (*ComplementNB, error) {
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
	c := &ComplementNB{opts: opts, vocab: map[string]int{}, trainedDocs: len(docs)}
	for t, df := range docFreq {
		if opts.MinOccurrences > 1 && df < opts.MinOccurrences {
			continue
		}
		c.vocab[t] = len(c.vocab)
	}
	if len(c.vocab) == 0 {
		return nil, fmt.Errorf("textproc: pruning left an empty vocabulary")
	}
	c.bns = make([]float64, len(c.vocab))
	for t, idx := range c.vocab {
		if opts.BNS {
			c.bns[idx] = BNSScore(classDocFreq[Positive][t], nPos, classDocFreq[Negative][t], nNeg)
			if c.bns[idx] <= 0 {
				c.bns[idx] = 1e-3
			}
		} else {
			c.bns[idx] = 1
		}
	}

	// Complement counts: for class c, accumulate weighted term counts of
	// every document NOT in c.
	counts := [2][]float64{make([]float64, len(c.vocab)), make([]float64, len(c.vocab))}
	totals := [2]float64{}
	for i, d := range docs {
		complementOf := 1 - d.Label // the class this document is the complement of
		for t, w := range countFeatures(features[i], opts.TermFrequency) {
			idx, ok := c.vocab[t]
			if !ok {
				continue
			}
			weighted := w * c.bns[idx]
			counts[complementOf][idx] += weighted
			totals[complementOf] += weighted
		}
	}
	v := float64(len(c.vocab))
	for class := 0; class < 2; class++ {
		c.weight[class] = make([]float64, len(c.vocab))
		denom := math.Log(totals[class] + v)
		var norm float64
		for idx := range c.weight[class] {
			w := math.Log(counts[class][idx]+1) - denom
			c.weight[class][idx] = w
			norm += math.Abs(w)
		}
		// Weight normalization (the WCNB variant) counters the bias long
		// documents introduce.
		if norm > 0 {
			for idx := range c.weight[class] {
				c.weight[class][idx] /= norm
			}
		}
	}
	return c, nil
}

// classSums computes Σ f·w per class.
func (c *ComplementNB) classSums(text string) [2]float64 {
	var sums [2]float64
	for t, w := range countFeatures(c.opts.Features(text), c.opts.TermFrequency) {
		idx, ok := c.vocab[t]
		if !ok {
			continue
		}
		weighted := w * c.bns[idx]
		sums[Positive] += weighted * c.weight[Positive][idx]
		sums[Negative] += weighted * c.weight[Negative][idx]
	}
	return sums
}

// Score implements TextClassifier: positive values favor the positive
// class (its complement sum is smaller).
func (c *ComplementNB) Score(text string) float64 {
	sums := c.classSums(text)
	return sums[Negative] - sums[Positive]
}

// Predict implements TextClassifier.
func (c *ComplementNB) Predict(text string) Label {
	if c.Score(text) >= 0 {
		return Positive
	}
	return Negative
}

// SentimentGrade maps the score onto the platform's 1–5 grade scale. CNB
// scores are normalized, so the squash constant differs from NaiveBayes's.
func (c *ComplementNB) SentimentGrade(text string) float64 {
	return 3 + 2*math.Tanh(c.Score(text)*50)
}
