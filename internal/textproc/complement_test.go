package textproc

import (
	"testing"
)

func TestComplementNBLearnsSeparableCorpus(t *testing.T) {
	for _, opts := range []PipelineOptions{BaselineOptions(), OptimizedOptions()} {
		cnb, err := TrainComplementNB(tinyCorpus(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if cnb.Predict("the food was amazing and the staff so friendly") != Positive {
			t.Errorf("opts %+v: positive review misclassified", opts)
		}
		if cnb.Predict("rude waiters and terrible horrible food") != Negative {
			t.Errorf("opts %+v: negative review misclassified", opts)
		}
		m := Evaluate(cnb, tinyCorpus())
		if m.Accuracy() < 0.99 {
			t.Errorf("opts %+v: training accuracy %.3f too low", opts, m.Accuracy())
		}
	}
}

func TestComplementNBValidation(t *testing.T) {
	if _, err := TrainComplementNB([]Document{{Text: "x", Label: Positive}}, BaselineOptions()); err == nil {
		t.Error("single-class corpus must fail")
	}
	docs := []Document{
		{Text: "alpha", Label: Positive},
		{Text: "beta", Label: Negative},
	}
	if _, err := TrainComplementNB(docs, PipelineOptions{MinOccurrences: 5}); err == nil {
		t.Error("fully pruned vocabulary must fail")
	}
}

func TestComplementNBGradeRange(t *testing.T) {
	cnb, err := TrainComplementNB(tinyCorpus(), OptimizedOptions())
	if err != nil {
		t.Fatal(err)
	}
	pos := cnb.SentimentGrade("amazing wonderful excellent fantastic food")
	neg := cnb.SentimentGrade("terrible horrible awful worst dinner")
	if pos <= 3 || pos > 5 || neg >= 3 || neg < 1 {
		t.Errorf("grades out of range: pos=%g neg=%g", pos, neg)
	}
}

func TestComplementNBComparableToStandardNB(t *testing.T) {
	// On the platform's review corpus both classifiers should be in the
	// same accuracy league; CNB must not collapse.
	corpus := tinyCorpus()
	nb, err := TrainNaiveBayes(corpus, OptimizedOptions())
	if err != nil {
		t.Fatal(err)
	}
	cnb, err := TrainComplementNB(corpus, OptimizedOptions())
	if err != nil {
		t.Fatal(err)
	}
	test := tinyCorpus()
	accNB := Evaluate(nb, test).Accuracy()
	accCNB := Evaluate(cnb, test).Accuracy()
	if accCNB < accNB-0.05 {
		t.Errorf("CNB accuracy %.3f collapsed below NB %.3f", accCNB, accNB)
	}
	if len(cnb.vocab) != nb.VocabularySize() {
		t.Errorf("same pipeline must build the same vocabulary: %d vs %d", len(cnb.vocab), nb.VocabularySize())
	}
}
