(** Structural integrity checking for MIGs.

    Validates every invariant the rewriting engine relies on:
    sorted distinct-node fanin triples with no complementary pair, fanout
    lists consistent with fanins, structural-hash table consistent with the
    live gates (no duplicate triples), acyclicity, and no dead node
    reachable from an output.  Used by the test-suite after randomized
    rewrite storms; O(n log n). *)

val check : Mig.t -> (unit, string) result
