// Package thematicep is a Go reproduction of "Thematic Event Processing"
// (Hasan and Curry, Middleware 2014): an approximate, distributional
// semantics based publish/subscribe matching model in which events and
// subscriptions carry theme tags that parametrize the vector space the
// matcher measures relatedness in.
//
// The implementation lives under internal/:
//
//   - internal/matcher — the thematic approximate probabilistic matcher
//     (the paper's contribution);
//   - internal/semantics — the parametric vector space model with thematic
//     projection (Algorithm 1) over internal/index and internal/corpus;
//   - internal/broker — the pub/sub middleware substrate (in-process and
//     TCP); broker.New(matcher.New(space)) is the whole wiring: the matcher
//     is the broker's engine as it is, and Publish(e) is PublishBatch of
//     one event through the single publish pipeline;
//   - internal/workload, internal/eval, internal/figures — the evaluation
//     framework that regenerates the paper's tables and figures;
//   - internal/baseline, internal/cep, internal/thesaurus, internal/vocab —
//     baselines, complex event processing, and vocabulary substrates.
//
// Entry points: cmd/repro regenerates every experiment; cmd/thematicd and
// cmd/themctl run the broker over TCP; examples/ hold runnable scenarios.
// The root-level benchmarks (bench_test.go) cover every table and figure;
// see DESIGN.md and EXPERIMENTS.md.
package thematicep
