from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "qdistmat._speedups",
            ["src/qdistmat/_speedups.c"],
            extra_compile_args=["-O2"],
            optional=True,  # build failure leaves the package on permlab's pure sweep
        )
    ]
)
