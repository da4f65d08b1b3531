// Umbrella header for the USP library: everything a downstream application
// needs to build, query, and evaluate unsupervised space-partitioning ANN
// indexes. Individual module headers remain includable on their own.
#ifndef USP_USP_H_
#define USP_USP_H_

// Distance kernels and metrics (runtime-dispatched SIMD), float and
// quantized (pq4 fast-scan, int8 sq8).
#include "dist/distance_computer.h"
#include "dist/distance_kernels.h"
#include "dist/metric.h"
#include "dist/quant_kernels.h"

// Unified index interface (SearchRequest/SearchOptions, predicate-filtered
// search via IdSelector, selectivity-aware query planning) + versioned
// serialization (train once, serve many) + algorithm='auto' index factory.
#include "index/auto_index.h"
#include "index/container.h"
#include "index/id_selector.h"
#include "index/index.h"
#include "index/query_planner.h"
#include "index/serialize.h"

// Mutable serving layer (LSM-style segments, tombstone deletes, compaction).
#include "serve/dynamic_index.h"

// Scale-out serving: sharded scatter-gather + async micro-batching front-end.
#include "serve/batching_executor.h"
#include "serve/sharded_index.h"

// Core contribution (EDBT 2023 paper).
#include "core/bin_scorer.h"
#include "core/ensemble.h"
#include "core/hierarchical.h"
#include "core/loss.h"
#include "core/partition_index.h"
#include "core/partitioner.h"

// Data: generators, IO, workloads with ground truth.
#include "dataset/io.h"
#include "dataset/synthetic.h"
#include "dataset/workload.h"

// Exact search substrate, and the collectors and stages every k-NN and
// radius search ends with.
#include "knn/brute_force.h"

// Fast k-NN-graph construction (exact symmetric tiles, index-accelerated
// approximate, out-of-core streaming).
#include "workload/knn_graph.h"

// Baselines and companion indexes.
#include "baselines/cross_polytope_lsh.h"
#include "baselines/kmeans.h"
#include "baselines/partition_tree.h"
#include "graphpart/neural_lsh.h"
#include "graphpart/regression_lsh.h"
#include "hnsw/hnsw.h"
#include "ivf/ivf.h"
#include "quant/fastscan.h"
#include "quant/scann_index.h"
#include "quant/sq8_index.h"

// Clustering mode (Table 5).
#include "cluster/dbscan.h"
#include "cluster/metrics.h"
#include "cluster/spectral.h"

// Evaluation harness.
#include "eval/sweep.h"

#endif  // USP_USP_H_
