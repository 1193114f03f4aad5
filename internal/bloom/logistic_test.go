package bloom

import (
	"math/rand"
	"testing"
)

func TestLogisticSeparatesNGrams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(phish bool) string {
		words := []string{"alpha", "beta", "gamma", "delta"}
		w := words[rng.Intn(len(words))]
		if phish {
			return "http://" + w + "-login-secure.xyz"
		}
		return "https://www." + w + ".com/page"
	}
	var pos, neg []string
	for i := 0; i < 500; i++ {
		pos = append(pos, mk(true))
		neg = append(neg, mk(false))
	}
	cfg := DefaultLogisticConfig()
	m := NewLogisticNGram(cfg)
	m.Train(pos, neg, cfg)
	correct := 0
	for i := 0; i < 100; i++ {
		if m.Predict(mk(true)) > 0.5 {
			correct++
		}
		if m.Predict(mk(false)) < 0.5 {
			correct++
		}
	}
	if correct < 190 {
		t.Fatalf("logistic accuracy %d/200", correct)
	}
}
