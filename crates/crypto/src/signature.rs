//! Hash-then-sign envelope used for gradient uploads.
//!
//! The paper's Procedure-II (Section 4.2) has every client sign its gradient
//! upload with its private key; the receiving miner verifies the signature
//! with the client's registered public key before accepting the transaction
//! (Figure 2). Because the gradient payload is much larger than the RSA
//! modulus, the payload is first hashed with SHA-256 and the digest, reduced
//! modulo `n`, is what gets exponentiated.
//!
//! [`verify_message`] is the one-shot entry point; [`BatchVerifier`] is
//! the amortized one that the miner's admission loop runs. The one-shot
//! path pays roughly a dozen small allocations per call (workspace
//! buffers for the Montgomery convert/pow/recover chain, the digest
//! preimage, the explicit digest reduction). The verifier keeps a single
//! prepared [`MontWorkspace`] plus a reusable preimage buffer across
//! every message it checks, compares in the Montgomery domain (skipping
//! the recover multiply), and gets the squaring-specialised reduction
//! that prepared workspaces unlock — same accept/reject decision per
//! upload, measurably less constant overhead per upload.

use crate::bigint::BigUint;
use crate::engine;
use crate::error::CryptoError;
use crate::montgomery::MontWorkspace;
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::sha256::sha256;
use serde::{Deserialize, Serialize};

/// A detached RSA signature over a SHA-256 digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Big-endian bytes of the signature integer `s = H(m)^d mod n`.
    pub bytes: Vec<u8>,
}

impl Signature {
    /// Interprets the signature as an integer.
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_bytes_be(&self.bytes)
    }

    /// Signature length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the signature carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A payload together with its signer id and signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedMessage {
    /// Identifier of the signing client.
    pub signer: u64,
    /// The signed payload (already serialized by the caller).
    pub payload: Vec<u8>,
    /// Detached signature over `signer || payload`.
    pub signature: Signature,
}

/// Reduces the SHA-256 digest of `signer || payload` into the key's modulus.
fn digest_as_integer(signer: u64, payload: &[u8], modulus: &BigUint) -> BigUint {
    let mut preimage = Vec::with_capacity(payload.len() + 8);
    preimage.extend_from_slice(&signer.to_be_bytes());
    preimage.extend_from_slice(payload);
    let digest = sha256(&preimage);
    BigUint::from_bytes_be(&digest).rem(modulus)
}

/// Signs `payload` on behalf of `signer` with `key`.
pub fn sign_message(signer: u64, payload: &[u8], key: &RsaPrivateKey) -> SignedMessage {
    let m = digest_as_integer(signer, payload, key.modulus());
    let s = key.apply(&m);
    SignedMessage {
        signer,
        payload: payload.to_vec(),
        signature: Signature {
            bytes: s.to_bytes_be(),
        },
    }
}

/// Verifies a [`SignedMessage`] against the claimed signer's public key.
pub fn verify_message(message: &SignedMessage, key: &RsaPublicKey) -> Result<(), CryptoError> {
    let expected = digest_as_integer(message.signer, &message.payload, key.modulus());
    let recovered = key.apply(&message.signature.to_biguint());
    if recovered == expected {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// Verifies uploads one after another through shared buffers,
/// amortizing the per-call setup that [`verify_message`] pays: one
/// prepared [`MontWorkspace`] (re-fitted only when the key width
/// changes) and one preimage buffer serve every message, and comparisons
/// happen in the Montgomery domain. Per-message decisions are *exactly*
/// those of [`verify_message`].
///
/// In [`engine::set_reference_mode`] the verifier delegates every
/// message to [`verify_message`] so the retained seed path stays the
/// single source of truth for equivalence runs.
#[derive(Debug, Default)]
pub struct BatchVerifier {
    ws: MontWorkspace,
    preimage: Vec<u8>,
}

impl BatchVerifier {
    /// A fresh verifier with empty (lazily fitted) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// SHA-256 digest of `signer || payload` through the reusable
    /// preimage buffer.
    fn digest32(&mut self, signer: u64, payload: &[u8]) -> [u8; 32] {
        self.preimage.clear();
        self.preimage.extend_from_slice(&signer.to_be_bytes());
        self.preimage.extend_from_slice(payload);
        sha256(&self.preimage)
    }

    /// Verifies one message exactly like [`verify_message`], through the
    /// shared workspace. Decisions are identical: both compare
    /// `s^e mod n` against the reduced digest, here via the (bijective)
    /// Montgomery images instead of the recovered residues.
    pub fn confirm(
        &mut self,
        message: &SignedMessage,
        key: &RsaPublicKey,
    ) -> Result<(), CryptoError> {
        if engine::reference_mode() {
            return verify_message(message, key);
        }
        let Some(ctx) = key.montgomery_ctx() else {
            // Even/trivial modulus: no Montgomery context exists and the
            // one-shot path's reference exponentiation is the only route.
            return verify_message(message, key);
        };
        let digest = self.digest32(message.signer, &message.payload);
        ctx.prepare(&mut self.ws);
        ctx.load_bytes_be(&message.signature.bytes, &mut self.ws);
        ctx.pow_in_place(key.exponent(), &mut self.ws);
        ctx.stash_value(&mut self.ws);
        ctx.load_bytes_be(&digest, &mut self.ws);
        if ctx.value_equals_stash(&self.ws) {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(0x516);
        RsaKeyPair::generate(&mut rng, 256).unwrap()
    }

    #[test]
    fn sign_and_verify_round_trip() {
        let pair = keypair();
        let payload = b"gradient bytes for round 7";
        let msg = sign_message(42, payload, &pair.private);
        assert_eq!(msg.signer, 42);
        assert_eq!(msg.payload, payload);
        assert!(!msg.signature.is_empty());
        assert!(msg.signature.len() <= 32);
        verify_message(&msg, &pair.public).expect("valid signature must verify");
    }

    #[test]
    fn tampered_payload_is_rejected() {
        let pair = keypair();
        let mut msg = sign_message(1, b"honest gradient", &pair.private);
        msg.payload = b"forged gradient".to_vec();
        assert_eq!(
            verify_message(&msg, &pair.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_signer_is_rejected() {
        let pair = keypair();
        let mut msg = sign_message(1, b"honest gradient", &pair.private);
        msg.signer = 2;
        assert_eq!(
            verify_message(&msg, &pair.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_signature_is_rejected() {
        let pair = keypair();
        let mut msg = sign_message(1, b"honest gradient", &pair.private);
        if let Some(first) = msg.signature.bytes.first_mut() {
            *first ^= 0xff;
        }
        assert_eq!(
            verify_message(&msg, &pair.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn wrong_key_is_rejected() {
        let pair = keypair();
        let mut other_rng = StdRng::seed_from_u64(0x999);
        let other = RsaKeyPair::generate(&mut other_rng, 256).unwrap();
        let msg = sign_message(1, b"payload", &pair.private);
        assert_eq!(
            verify_message(&msg, &other.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn empty_payload_is_signable() {
        let pair = keypair();
        let msg = sign_message(9, b"", &pair.private);
        verify_message(&msg, &pair.public).unwrap();
    }

    /// A "reversed" pair: signing uses the short exponent 65537,
    /// verification the full-size exponent `d` — a valid RSA relation
    /// whose verify exponent is as long as the modulus.
    fn long_exponent_pair() -> (RsaPrivateKey, RsaPublicKey) {
        let mut rng = StdRng::seed_from_u64(0xB47C);
        let pair = RsaKeyPair::generate(&mut rng, 256).unwrap();
        let signer = RsaPrivateKey::from_components(
            pair.public.modulus().clone(),
            pair.public.exponent().clone(),
        );
        let verifier = RsaPublicKey::new(
            pair.private.modulus().clone(),
            pair.private.exponent().clone(),
        );
        (signer, verifier)
    }

    #[test]
    fn batch_confirm_matches_one_shot_decisions() {
        let _guard = crate::engine::mode_lock();
        let pair = keypair();
        let other = {
            let mut rng = StdRng::seed_from_u64(0x717);
            RsaKeyPair::generate(&mut rng, 320).unwrap()
        };
        let mut verifier = BatchVerifier::new();
        // Valid, tampered, and cross-width messages — the shared
        // workspace re-fits between the 256- and 320-bit keys.
        let valid = sign_message(1, b"round 9 gradient", &pair.private);
        let mut tampered = sign_message(2, b"honest", &pair.private);
        tampered.payload = b"forged".to_vec();
        let wide = sign_message(3, b"wide key upload", &other.private);
        for (msg, key) in [
            (&valid, &pair.public),
            (&tampered, &pair.public),
            (&wide, &other.public),
            (&valid, &other.public),
        ] {
            assert_eq!(verifier.confirm(msg, key), verify_message(msg, key));
        }
    }

    #[test]
    fn verify_batch_matches_per_upload_in_both_engine_modes() {
        let _guard = crate::engine::mode_lock();
        let pair = keypair();
        let mut msgs: Vec<SignedMessage> = (0..6)
            .map(|i| sign_message(i, format!("upload {i}").as_bytes(), &pair.private))
            .collect();
        // Corrupt two of them (payload byte flip and signature byte flip).
        msgs[1].payload[0] ^= 0x40;
        if let Some(b) = msgs[4].signature.bytes.first_mut() {
            *b ^= 0x01;
        }
        for reference in [false, true] {
            crate::engine::set_reference_mode(reference);
            let mut verifier = BatchVerifier::new();
            let got: Vec<_> = msgs
                .iter()
                .map(|m| verifier.confirm(m, &pair.public))
                .collect();
            let expected: Vec<_> = msgs
                .iter()
                .map(|m| verify_message(m, &pair.public))
                .collect();
            assert_eq!(got, expected, "reference={reference}");
            let accepted: Vec<bool> = got.iter().map(Result::is_ok).collect();
            assert_eq!(
                accepted,
                [true, false, true, true, false, true],
                "reference={reference}"
            );
        }
        crate::engine::set_reference_mode(false);
    }

    #[test]
    fn screen_fallback_rejects_swapped_signatures_exactly() {
        let _guard = crate::engine::mode_lock();
        let (long_signer, long_public) = long_exponent_pair();
        // Long-exponent members, two of them with swapped (individually
        // well-formed) signatures.
        let mut long_msgs: Vec<SignedMessage> = (0..4)
            .map(|i| sign_message(i, format!("member {i}").as_bytes(), &long_signer))
            .collect();
        let swapped = long_msgs[1].signature.clone();
        long_msgs[1].signature = long_msgs[2].signature.clone();
        long_msgs[2].signature = swapped;
        for reference in [false, true] {
            crate::engine::set_reference_mode(reference);
            let mut verifier = BatchVerifier::new();
            let got: Vec<_> = long_msgs
                .iter()
                .map(|m| verifier.confirm(m, &long_public))
                .collect();
            let expected: Vec<_> = long_msgs
                .iter()
                .map(|m| verify_message(m, &long_public))
                .collect();
            assert_eq!(got, expected, "reference={reference}");
            let accepted: Vec<bool> = got.iter().map(Result::is_ok).collect();
            assert_eq!(
                accepted,
                [true, false, false, true],
                "reference={reference}"
            );
        }
        crate::engine::set_reference_mode(false);
    }

    #[test]
    fn signed_message_serde_round_trip() {
        let pair = keypair();
        let msg = sign_message(5, b"serialize me", &pair.private);
        let json = serde_json::to_string(&msg).unwrap();
        let back: SignedMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
        verify_message(&back, &pair.public).unwrap();
    }

    mod batch_equivalence_properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Two key pairs shared across proptest cases (keygen is the
        /// expensive part): a standard short-exponent pair and a reversed
        /// long-exponent pair.
        fn shared_pairs() -> &'static [(RsaPrivateKey, RsaPublicKey); 2] {
            static PAIRS: OnceLock<[(RsaPrivateKey, RsaPublicKey); 2]> = OnceLock::new();
            PAIRS.get_or_init(|| {
                let standard = {
                    let mut rng = StdRng::seed_from_u64(0xBA7C4);
                    let pair = RsaKeyPair::generate(&mut rng, 256).unwrap();
                    (pair.private, pair.public)
                };
                [standard, long_exponent_pair()]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// One shared verifier's per-message `confirm` reaches exactly
            /// the `verify_message` verdicts for arbitrary accept/reject
            /// mixes — corrupted payload bytes and corrupted signature
            /// bytes included — under both engine modes and for both
            /// short- and long-exponent keys.
            #[test]
            fn confirm_equals_per_upload_for_arbitrary_mixes(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..48), 1..7),
                corrupt_sig in proptest::collection::vec(any::<bool>(), 0..4),
                corrupt_at in proptest::collection::vec(any::<usize>(), 0..4),
                corrupt_flip in proptest::collection::vec(1u8..=255, 0..4),
                key_choice in any::<bool>(),
                reference in any::<bool>(),
            ) {
                let (private, public) = &shared_pairs()[usize::from(key_choice)];
                let mut msgs: Vec<SignedMessage> = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| sign_message(i as u64, p, private))
                    .collect();
                let strikes = corrupt_sig.len().min(corrupt_at.len()).min(corrupt_flip.len());
                for ((&in_signature, &index_seed), &flip) in corrupt_sig
                    .iter()
                    .zip(&corrupt_at)
                    .zip(&corrupt_flip)
                    .take(strikes)
                {
                    let victim = index_seed % msgs.len();
                    let bytes = if in_signature {
                        &mut msgs[victim].signature.bytes
                    } else {
                        &mut msgs[victim].payload
                    };
                    if !bytes.is_empty() {
                        let at = index_seed % bytes.len();
                        bytes[at] ^= flip;
                    }
                }
                let batch: Vec<(&SignedMessage, &RsaPublicKey)> =
                    msgs.iter().map(|m| (m, public)).collect();
                let _guard = crate::engine::mode_lock();
                crate::engine::set_reference_mode(reference);
                let expected: Vec<_> =
                    batch.iter().map(|(m, k)| verify_message(m, k)).collect();
                let mut verifier = BatchVerifier::new();
                let got: Vec<_> =
                    batch.iter().map(|(m, k)| verifier.confirm(m, k)).collect();
                crate::engine::set_reference_mode(false);
                prop_assert_eq!(got, expected);
            }
        }
    }
}
