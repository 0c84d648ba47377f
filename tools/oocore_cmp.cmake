# ctest helper: run fdxtool discover on ${CSV} four ways — in-memory,
# through the out-of-core chunk store with a deliberately tiny chunk
# size and memory ceiling, the same with varint-compressed chunk
# payloads, and once more with the `store.mmap` fault point failing
# every chunk map, so each chunk is read through the pread fallback —
# and fail unless the --stable JSON outputs are byte-identical. Invoked
# as:
#   cmake -DFDXTOOL=<bin> -DCSV=<file> -P oocore_cmp.cmake

execute_process(
  COMMAND ${FDXTOOL} discover ${CSV} --format=json --stable
  OUTPUT_VARIABLE in_memory RESULT_VARIABLE in_memory_rc)
if(NOT in_memory_rc EQUAL 0)
  message(FATAL_ERROR "in-memory discover failed (exit ${in_memory_rc})")
endif()

execute_process(
  COMMAND ${FDXTOOL} discover ${CSV} --format=json --stable
          --max-memory-mb=512 --chunk-rows=97
  OUTPUT_VARIABLE chunked RESULT_VARIABLE chunked_rc)
if(NOT chunked_rc EQUAL 0)
  message(FATAL_ERROR "out-of-core discover failed (exit ${chunked_rc})")
endif()

if(NOT in_memory STREQUAL chunked)
  message(FATAL_ERROR
    "out-of-core output diverged from in-memory:\n"
    "--- in-memory ---\n${in_memory}\n--- chunked ---\n${chunked}")
endif()

execute_process(
  COMMAND ${FDXTOOL} discover ${CSV} --format=json --stable
          --max-memory-mb=512 --chunk-rows=97 --store-compression=varint
  OUTPUT_VARIABLE compressed RESULT_VARIABLE compressed_rc)
if(NOT compressed_rc EQUAL 0)
  message(FATAL_ERROR "compressed discover failed (exit ${compressed_rc})")
endif()
if(NOT in_memory STREQUAL compressed)
  message(FATAL_ERROR
    "compressed-store output diverged from in-memory:\n"
    "--- in-memory ---\n${in_memory}\n--- compressed ---\n${compressed}")
endif()

set(ENV{FDX_FAULTS} store.mmap)
execute_process(
  COMMAND ${FDXTOOL} discover ${CSV} --format=json --stable
          --max-memory-mb=512 --chunk-rows=97
  OUTPUT_VARIABLE readpath RESULT_VARIABLE readpath_rc)
unset(ENV{FDX_FAULTS})
if(NOT readpath_rc EQUAL 0)
  message(FATAL_ERROR "read-path discover failed (exit ${readpath_rc})")
endif()
if(NOT in_memory STREQUAL readpath)
  message(FATAL_ERROR
    "pread-path output diverged from in-memory:\n"
    "--- in-memory ---\n${in_memory}\n--- read ---\n${readpath}")
endif()
