// The Fig. 2 running example: matrix chain multiplication
// R = ((A*B) * C) * D with four N x N matrices.
//
// Each multiplication is an explicit loop nest (parallel (i,j) around a
// sequential k accumulation), so loop transformations such as MapTiling
// apply directly.  The second multiplication (U*C -> V) is the tiling
// target of the paper's example; V is transient but read again by the third
// multiplication, making it the cutout's system state.
#pragma once

#include "ir/sdfg.h"

namespace ff::workloads {

ir::SDFG build_matrix_chain();

}  // namespace ff::workloads
