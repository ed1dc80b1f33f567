# Feeds each malformed or out-of-range numeric flag to cluster_fasta on a
# two-read FASTA and fails unless every run exits with status 2 (the usage
# line); a run with valid flags must exit 0.
#
#   cmake -DCLUSTER_FASTA=<binary> -DWORK_DIR=<dir> \
#         -P cluster_fasta_bad_flags.cmake
set(fasta "${WORK_DIR}/cluster_fasta_two_reads.fa")
file(WRITE "${fasta}" ">a\nACGTACGTTGCAACGTAGGT\n>b\nACGTACGTTGCAACGTAGGA\n")

execute_process(
  COMMAND "${CLUSTER_FASTA}" "${fasta}" --kmer=5 --hashes=16 --theta=0.5
          --nodes=2 --seed=3
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "valid flags: exit ${status}, want 0")
endif()

set(failures "")
foreach(flag --kmer=abc --kmer=12x --kmer= --kmer=0 --kmer=32 --hashes=-1
             --hashes=0 --hashes=65537 --hashes=1e3 --nodes=0 --nodes=-2
             --theta=2 --theta=-0.1 --theta=nan --theta=0.5x --seed=x)
  execute_process(COMMAND "${CLUSTER_FASTA}" "${fasta}" ${flag}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
  if(NOT status STREQUAL "2")
    list(APPEND failures "${flag}: exit ${status}")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "want exit 2 for every bad flag; got ${failures}")
endif()
