// Package core implements the paper's algorithms: tight order-preserving
// compaction into R blocks and loose compaction into 5R (both Lemma 3's
// consolidation routed by Theorem 6's butterfly, which undercuts the
// paper's Theorem 4 and its Theorems 8 and 9 at every geometry priced, so
// none of them is built), selection (Theorems 12 and 13), quantiles
// (Theorem 17's problem, by a sort or q selections), and the randomized
// I/O-optimal data-oblivious sort (Theorem 21, §5). The two building blocks
// they share with the sorter engines — data-oblivious consolidation (Lemma
// 3) and the butterfly-like routing network (Theorem 6, Figure 1) — live in
// internal/route.
//
// All algorithms run against an extmem.Env; their address traces depend
// only on (N, M, B) and the random tape, never on data values — the test
// suite asserts this by running each algorithm on different inputs with a
// fixed tape and comparing traces bit-for-bit.
package core
