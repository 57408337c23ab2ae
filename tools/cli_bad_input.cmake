# Bad command lines must be usage errors: each case below runs chtread_fuzz
# or chtread_sim and requires exit status 2, never an abort (134), a thrown
# exception or a silent fallback to a default. No case starts a simulation.
#
#   cmake -DFUZZ=<chtread_fuzz> -DSIM=<chtread_sim> -DWORK_DIR=<dir> \
#         -P cli_bad_input.cmake

set(garbled "${WORK_DIR}/cli_bad_input_artifact.txt")
file(WRITE "${garbled}"
     "protocol=chtread\nseed=x\nfingerprint=0123456789abcdef\n")

function(expect_usage_error tool)
  execute_process(COMMAND "${tool}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "${tool} ${ARGN}: exit '${rc}', expected 2\n${err}")
  endif()
endfunction()

# Malformed numbers.
expect_usage_error("${FUZZ}" --seeds=abc)
expect_usage_error("${FUZZ}" --seed-start=-1)
expect_usage_error("${FUZZ}" --threads=2x)
expect_usage_error("${FUZZ}" --read-fraction=half)
expect_usage_error("${FUZZ}" --client-path=)
expect_usage_error("${SIM}" --ops=abc)
expect_usage_error("${SIM}" --loss=x)
# Sizes below their minimum.
expect_usage_error("${FUZZ}" --seeds=0)
expect_usage_error("${FUZZ}" --n=0)
expect_usage_error("${FUZZ}" --max-inflight=0)
expect_usage_error("${FUZZ}" --delta-ms=0)
expect_usage_error("${FUZZ}" --epsilon-ms=-1)
expect_usage_error("${SIM}" --n=0)
expect_usage_error("${SIM}" --delta-ms=0)
expect_usage_error("${SIM}" --epsilon-ms=-1)
expect_usage_error("${FUZZ}" --ops=0)
expect_usage_error("${SIM}" --ops=0)
expect_usage_error("${SIM}" --ops=-3)
# Probabilities outside [0, 1].
expect_usage_error("${FUZZ}" --loss=2)
expect_usage_error("${FUZZ}" --loss=-0.1)
expect_usage_error("${FUZZ}" --key-loss=1.5)
expect_usage_error("${FUZZ}" --read-fraction=-1)
expect_usage_error("${FUZZ}" --key-skew=1.01)
expect_usage_error("${FUZZ}" --read-fraction=nan)
expect_usage_error("${SIM}" --loss=2)
expect_usage_error("${SIM}" --loss=-0.5)
# An artifact directory that does not exist, or is a file.
expect_usage_error("${FUZZ}" "--artifact-dir=${WORK_DIR}/no_such_dir")
expect_usage_error("${FUZZ}" "--artifact-dir=${garbled}")
# A repro artifact with a garbled value.
expect_usage_error("${FUZZ}" "--repro=${garbled}")
# Unknown names, and a read mode of another protocol.
expect_usage_error("${SIM}" --protocol=paxos)
expect_usage_error("${SIM}" --workload=bogus)
expect_usage_error("${SIM}" --reads=bogus)
expect_usage_error("${SIM}" --protocol=raft --reads=core-forward)
expect_usage_error("${SIM}" --protocol=vr --reads=raft-lease)
expect_usage_error("${SIM}" --check=maybe)

file(REMOVE "${garbled}")
