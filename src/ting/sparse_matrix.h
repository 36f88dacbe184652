// Forwarding header: the daemon store and the scan matrix are one class,
// RttMatrix (ting/rtt_matrix.h), which also declares the SparseRttMatrix
// alias and load_matrix_any. New code includes ting/rtt_matrix.h.
#pragma once

#include "ting/rtt_matrix.h"
