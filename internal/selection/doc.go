// Package selection implements the paper's question-selection strategies for
// uncertainty reduction (§III): the offline algorithms TB-off, C-off and
// A*-off (offline-optimal), the online algorithms T1-on and A*-on, the
// Random and Naive baselines of §IV, and an exhaustive-search reference used
// to verify offline optimality on small instances.
//
// All strategies evaluate candidate questions through the expected residual
// uncertainty R_Q(T_K): the expectation, over the possible answers to the
// question set Q, of the uncertainty of the tree pruned by those answers.
//
// # Evaluation engine
//
// Strategies evaluate through a ResidualEngine: the leaf set is snapshotted
// into a flat Arena (paths in one backing array, weights in one vector),
// every candidate question's per-leaf classification is precomputed into a
// ConsistencyIndex together with per-class aggregates (mass, count,
// Σ w·log2 w, argmax), and partition cells are index/weight views over the
// shared arena. Single-question residuals are O(1) per question for U_H and
// one fused dot pass for U_MPO. It is the only evaluation path: every leaf
// set a tree produces is rectangular (all paths of length K), which is the
// one shape the arena needs, and checkpointed leaf sets are checked for it
// when they are turned back into trees.
//
// # Distance rows
//
// U_MPO's dot pass reads one row of normalized Kendall top-K distances per
// reference leaf: the distance of every arena leaf to the branch's most
// probable ordering. The arena fills each row once and shares it across
// cells and workers. The row kernel walks each leaf's path once, keeping
// the partial counts (order flips, probe-only-before-shared pairs, the sum
// of shared reference positions, and the set of reference positions seen,
// one bit each) per depth. Tree snapshots list siblings next to each other,
// so each leaf resumes at the first depth where its path leaves the
// previous leaf's, and a row costs about one step per tree node. The
// counts are the integers a pairwise O(K²) pass computes, and the final
// expression is the same, so the rows are bit-identical to it (the pairwise
// kernel is kept as the oracle in flat_test.go).
//
// # Live engine
//
// Building that index is O(leaves·pairs) — too much to repeat per answer
// when serving. A LiveEngine keeps one ResidualEngine alive across selection
// rounds and reconciles it with each leaf set a strategy is handed:
//
//   - Answers only condition the tree. The engine is not touched until the
//     next sweep, so offline batches, which never sweep again, pay nothing
//     per answer, and an incr round catches up in one pass however many
//     answers it absorbed.
//   - Every leaf set a session produces after an answer is a subsequence of
//     the one before: both come from one tree's leaf enumeration with
//     distinct paths. One forward walk pairs them.
//   - When leaves were dropped, the per-leaf arrays — dense ids,
//     classification bytes, cached distance rows — are compacted in place
//     through that pairing, and paths come from the new leaf set's flat
//     backing. The pairing is monotone, so no element moves past its
//     source, and the held engine is their only reader. All of them are
//     functions of the paths alone, so nothing is re-derived and the
//     classification is paid once per engine lifetime. Rows whose
//     reference was dropped are refilled for later references.
//   - The weights are always adopted from the new leaf set, and the
//     per-class aggregates are recomputed from them in the order a fresh
//     build uses.
//   - A leaf set the walk cannot pair completely, such as an incr tree one
//     level deeper, gets a fresh build.
//
// The reconciled engine holds exactly the leaves and weights a fresh build
// would, so selection output is byte-identical to a from-scratch engine —
// the cross-check suite in live_test.go pins this for all strategies and
// measures across interleaved answer sequences. Sessions own a LiveEngine
// and hand it to strategies via Context.Live. Process-wide activity
// counters are exported through LiveEngineStats for the serving layer's
// /v1/stats.
package selection
