// Umbrella header for the MrMC-MinH library.
//
//   #include "core/mrmc.hpp"
//
//   auto reads = mrmc::bio::read_fasta_file("sample.fa");
//   mrmc::core::PipelineParams params;
//   params.minhash = {.kmer = 5, .num_hashes = 100, .seed = 1};
//   params.mode = mrmc::core::Mode::kHierarchical;
//   params.theta = 0.9;
//   auto result = mrmc::core::run_pipeline(reads, params);
//   // result.labels[i] is the cluster of reads[i]
//
// See README.md for the full tour and examples/ for runnable programs.
#pragma once

#include "bio/alignment.hpp"
#include "bio/dna.hpp"
#include "bio/fasta.hpp"
#include "bio/fastq.hpp"
#include "bio/gotoh.hpp"
#include "bio/kmer.hpp"
#include "bio/seq_stats.hpp"
#include "core/candidate_jobs.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/incremental.hpp"
#include "core/minhash.hpp"
#include "core/otu_table.hpp"
#include "core/pipeline.hpp"
#include "mr/cluster.hpp"
#include "mr/job.hpp"
#include "mr/simdfs.hpp"
