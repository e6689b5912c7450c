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
// # Live engine
//
// Building that index is O(leaves·pairs) — too much to repeat per answer
// when serving. A LiveEngine keeps one ResidualEngine alive across selection
// rounds and applies accepted answers as in-place updates instead:
//
//   - Pruned leaves are tombstoned: the slot stays (paths, classification
//     bytes, prefix groups, distance rows remain valid) and the weight is
//     zeroed. Every consumer already treats zero-weight leaves as absent,
//     and compensated summation over interleaved zeros is an exact no-op,
//     so a tombstoned arena evaluates identically to a fresh compacted one.
//   - Survivor weights are overwritten with the tree's post-renormalization
//     values verbatim.
//   - For trusted (reliability-1) answers the per-class aggregates are
//     patched: removed leaves' contributions are subtracted, the survivor
//     sums are rescaled by the common renormalization factor, and cached
//     argmaxes are resynced (rescanning only classes whose argmax died).
//     Noisy answers reweight every leaf individually, so they take a full
//     aggregate recompute — still far cheaper than re-snapshotting and
//     re-classifying.
//
// Aggregate deltas are resynced in full every 32 patches (and whenever an
// update turns out not to be the common-scale renormalization the patch
// assumes), keeping float drift orders of magnitude below the engine's 1e-12
// selection tie epsilon. Renormalization rounding can merge near-equal
// survivor weights into exact ties; the affected class maxima are rescanned
// in place rather than forcing a resync. Once tombstones exceed a quarter of
// the arena the engine lazily compacts by filtering every per-leaf array
// through the alive-slot mapping — the question universe, π, classification
// bytes and cached distance rows all survive the renumbering, so compaction
// re-derives nothing. Either way, selection output is byte-identical
// to a from-scratch engine — the cross-check suite in live_test.go pins this
// for all strategies across interleaved answer sequences.
//
// Sessions own a LiveEngine and hand it to strategies via Context.Live; the
// session's answer path keeps it in sync through LiveEngine.Sync. ORA
// measures bypass the live path (their rank-aggregation input enumerates
// every view leaf, so tombstones are not transparent to them). Process-wide
// activity counters are exported through LiveEngineStats for the serving
// layer's /v1/stats.
package selection
