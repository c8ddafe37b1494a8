package textproc

import "fmt"

// ConfusionMatrix tallies binary classification outcomes.
type ConfusionMatrix struct {
	TruePositive  int
	TrueNegative  int
	FalsePositive int
	FalseNegative int
}

// Total returns the number of evaluated documents.
func (m ConfusionMatrix) Total() int {
	return m.TruePositive + m.TrueNegative + m.FalsePositive + m.FalseNegative
}

// Accuracy returns the fraction of correct predictions.
func (m ConfusionMatrix) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.TruePositive+m.TrueNegative) / float64(t)
}

// Precision returns TP / (TP + FP) for the positive class.
func (m ConfusionMatrix) Precision() float64 {
	d := m.TruePositive + m.FalsePositive
	if d == 0 {
		return 0
	}
	return float64(m.TruePositive) / float64(d)
}

// Recall returns TP / (TP + FN) for the positive class.
func (m ConfusionMatrix) Recall() float64 {
	d := m.TruePositive + m.FalseNegative
	if d == 0 {
		return 0
	}
	return float64(m.TruePositive) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (m ConfusionMatrix) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String implements fmt.Stringer.
func (m ConfusionMatrix) String() string {
	return fmt.Sprintf("acc=%.3f p=%.3f r=%.3f f1=%.3f (tp=%d tn=%d fp=%d fn=%d)",
		m.Accuracy(), m.Precision(), m.Recall(), m.F1(),
		m.TruePositive, m.TrueNegative, m.FalsePositive, m.FalseNegative)
}

// Evaluate classifies every document and tallies the confusion matrix.
func Evaluate(c TextClassifier, docs []Document) ConfusionMatrix {
	var m ConfusionMatrix
	for _, d := range docs {
		pred := c.Predict(d.Text)
		switch {
		case pred == Positive && d.Label == Positive:
			m.TruePositive++
		case pred == Negative && d.Label == Negative:
			m.TrueNegative++
		case pred == Positive && d.Label == Negative:
			m.FalsePositive++
		default:
			m.FalseNegative++
		}
	}
	return m
}
