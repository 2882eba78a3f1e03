// The Sec. 6.2 case study: Sampled Dense-Dense Matrix Multiplication from
// Vanilla Attention, distributed by rows with an allgather on the second
// dense operand.
//
//   B_full = allgather(B_local)                # communication
//   P      = A_local @ B_full^T                # dense contraction (loop nest)
//   D      = S  (Hadamard) P                   # sampling
//
// Cutouts of optimizations on the contraction or sampling exclude the
// allgather; the gathered matrix becomes a plain fuzzable input ("any data
// received through collectives is subsequently exposed as regular data
// parameters to the cutout", Sec. 6.2).
//
// Shapes per rank:  A_local [NLOC, K],  B_local [NCHUNK, K],
//                   B_full [NTOT, K] with NTOT = NCHUNK * num_ranks,
//                   S, P, D [NLOC, NTOT].
#pragma once

#include "ir/sdfg.h"

namespace ff::workloads {

ir::SDFG build_sddmm();

/// Bindings for an R-rank run (NTOT = NCHUNK * ranks).
sym::Bindings sddmm_defaults(std::int64_t nloc = 8, std::int64_t k = 8,
                             std::int64_t nchunk = 8, int ranks = 4);

}  // namespace ff::workloads
