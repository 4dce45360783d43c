// Package core implements the paper's algorithms: tight order-preserving
// compaction via an invertible Bloom lookup table (Theorem 4), loose
// compaction (Theorem 8) and its log*-round variant (Theorem 9, Appendix
// B), selection (Theorems 12 and 13), quantiles (Theorem 17's problem, by
// a sort or q selections), and the
// randomized I/O-optimal data-oblivious sort (Theorem 21, §5). The two
// building blocks they share with the sorter engines — data-oblivious
// consolidation (Lemma 3) and the butterfly-like routing network (Theorem
// 6, Figure 1) — live in internal/route.
//
// All algorithms run against an extmem.Env; their address traces depend
// only on (N, M, B) and the random tape, never on data values — the test
// suite asserts this by running each algorithm on different inputs with a
// fixed tape and comparing traces bit-for-bit.
package core
