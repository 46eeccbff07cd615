# Writes OUTPUT as `#define QCUT_GIT_SHA "<git rev-parse --short HEAD of
# SOURCE_DIR>"` ("unknown" outside a git checkout), touching the file only
# when its text changes, so its includers recompile only on a new commit.
# Run as: cmake -DSOURCE_DIR=<dir> -DOUTPUT=<file> -P git_sha.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(text "#define QCUT_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()
