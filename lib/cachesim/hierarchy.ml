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

let paper_config =
  { l1_size = 32 * 1024;
    l1_assoc = 8;
    llc_size = 40 * 1024 * 1024;
    llc_assoc = 20;
    line_bytes = 64;
    l1_tlb_entries = 64;
    l1_tlb_assoc = 4;
    l2_tlb_entries = 1536;
    l2_tlb_assoc = 6;
    page_bytes = 4096 }

let scaled_config =
  { l1_size = 8 * 1024;
    l1_assoc = 8;
    llc_size = 1024 * 1024;
    llc_assoc = 16;
    line_bytes = 64;
    l1_tlb_entries = 16;
    l1_tlb_assoc = 4;
    l2_tlb_entries = 96;
    l2_tlb_assoc = 6;
    page_bytes = 4096 }

type counters = {
  refs : int;
  l1_misses : int;
  llc_misses : int;
  l1_tlb_misses : int;
  l2_tlb_misses : int;
  writebacks : int;
}
