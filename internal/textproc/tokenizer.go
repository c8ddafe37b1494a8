// Package textproc implements the sentiment-analysis substrate of the
// platform: tokenization, stopword removal, Porter stemming, n-gram
// extraction, term-frequency and Bi-Normal-Separation feature weighting,
// rare-term pruning, and a multinomial Naive Bayes classifier — the same
// pipeline (and the same optimization list) the paper builds on Apache
// Mahout and tunes on Tripadvisor reviews in §3.2.
package textproc

import (
	"strings"
	"unicode"
)

// Tokenize lowercases the text and splits it into alphanumeric word tokens.
// Punctuation and other symbols separate tokens; digits are kept because
// ratings-like tokens ("5", "10/10") carry sentiment in review corpora.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Bigrams appends the adjacent-pair 2-grams of tokens ("good_food") to dst
// and returns it. The underscore joiner cannot collide with unigrams
// because Tokenize never emits it.
func Bigrams(dst, tokens []string) []string {
	for i := 0; i+1 < len(tokens); i++ {
		dst = append(dst, tokens[i]+"_"+tokens[i+1])
	}
	return dst
}

// stopwords is the classic English stopword list used by the preprocessing
// step ("removing all words belonging to a list of stopwords"). Negation
// words (not, no, nor, never) are deliberately kept: a sentiment pipeline
// that drops them cannot distinguish "good" from "not good", and the
// 2-gram optimization depends on seeing them.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a about above after again against all am an and any are aren as at be
because been before being below between both but by can could
couldn did didn do does doesn doing don down during each few for from
further had hadn has hasn have haven having he her here hers herself him
himself his how i if in into is isn it its itself let me more most mustn
my myself of off on once only or other ought our ours
ourselves out over own same shan she should shouldn so some such than
that the their theirs them themselves then there these they this those
through to too under until up very was wasn we were weren what when where
which while who whom why with won would wouldn you your yours yourself
yourselves t s re ll ve d m
`) {
		stopwords[w] = true
	}
}

// RemoveStopwords filters tokens in place, returning the shortened slice.
func RemoveStopwords(tokens []string) []string {
	out := tokens[:0]
	for _, t := range tokens {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}
