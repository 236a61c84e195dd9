(** The full memory hierarchy of the paper's testbed (§3.2):

    - L1D: 32 KB, 8-way, 64 B lines
    - LLC: 40 MB, 20-way, 64 B lines
    - L1 TLB: 64 entries, 4-way; L2 TLB: 1536 entries, 6-way; 4 KiB pages

    Each data reference walks L1 → LLC → DRAM and the TLB in parallel;
    the replay executor builds these levels from a [config] (one private
    L1 and TLB pair per thread, one shared LLC) and reports [counters],
    which feed the {!Cycles} model. *)

type config = {
  l1_size : int;
  l1_assoc : int;
  llc_size : int;
  llc_assoc : int;
  line_bytes : int;
  l1_tlb_entries : int;
  l1_tlb_assoc : int;
  l2_tlb_entries : int;
  l2_tlb_assoc : int;
  page_bytes : int;
}

val paper_config : config
(** The exact geometry of the paper's Intel machine. *)

val scaled_config : config
(** A proportionally scaled-down hierarchy (8 KB L1, 1 MB LLC, 16/96
    TLB entries) used by the experiment harness: the synthetic
    workloads replay millions — not hundreds of billions — of memory
    references, so cache capacities shrink by the same factor to keep
    the working-set-to-cache ratios of the paper's testbed (see
    DESIGN.md). *)

type counters = {
  refs : int;  (** total data references *)
  l1_misses : int;
  llc_misses : int;
  l1_tlb_misses : int;
  l2_tlb_misses : int;  (** page walks *)
  writebacks : int;  (** dirty LLC lines written back to memory *)
}
