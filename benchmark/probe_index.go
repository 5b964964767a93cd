package main

import (
	"bytes"
	"os"
	"time"

	"thematicep/internal/corpus"
	"thematicep/internal/index"
	"thematicep/internal/vocab"
)

// index times what a daemon start pays for the distributional space: the
// cache load every launch in this benchmark does, and the corpus build a
// launch without -index would do instead.
func (p *probes) index() error {
	raw, err := os.ReadFile(p.indexPath)
	if err != nil {
		return err
	}
	const loads = 5
	var loadMs []float64
	root, done := p.group("index.load")
	for range loads {
		d := p.call(root, "index.load", func() {
			_, err = index.ReadFrom(bytes.NewReader(raw))
		})
		if err != nil {
			done()
			return err
		}
		loadMs = append(loadMs, ms(d))
	}
	done()

	// thematicd's own build: the default corpus over every domain.
	var build time.Duration
	root, done = p.group("index.build")
	build = p.call(root, "index.build", func() {
		index.Build(corpus.Generate(vocab.AllDomains(), corpus.DefaultConfig()))
	})
	done()

	p.set("index.load_ms", median(loadMs), "ms", loads)
	p.set("index.build_s", build.Seconds(), "s", 1)
	return nil
}
